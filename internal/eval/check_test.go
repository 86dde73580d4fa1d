package eval_test

import (
	"testing"

	"uniqopt/internal/catalog"
	"uniqopt/internal/sql/ast"
	"uniqopt/internal/sql/parser"
	"uniqopt/internal/storage"
	"uniqopt/internal/value"
)

// The paper's CHECK example, as storage enforces it: a SUPPLIER row is
// accepted when every table constraint holds under the true
// interpretation, so a CHECK that is UNKNOWN passes.
func TestPaperCheckConstraints(t *testing.T) {
	st, err := parser.ParseStatement(`CREATE TABLE SUPPLIER (
		SNO INTEGER, SNAME VARCHAR, SCITY VARCHAR, BUDGET INTEGER, STATUS VARCHAR,
		CHECK (SNO BETWEEN 1 AND 499),
		CHECK (SCITY IN ('Chicago', 'New York', 'Toronto')),
		CHECK (BUDGET <> 0 OR STATUS = 'Inactive'))`)
	if err != nil {
		t.Fatal(err)
	}
	cat := catalog.New()
	if _, err := cat.DefineFromAST(st.(*ast.CreateTable)); err != nil {
		t.Fatal(err)
	}
	tbl := storage.NewDB(cat).MustTable("SUPPLIER")
	row := func(sno int64, city value.Value, budget int64, status string) value.Row {
		return value.Row{value.Int(sno), value.String_("A"), city, value.Int(budget), value.String_(status)}
	}
	toronto := value.String_("Toronto")
	for i, r := range []struct {
		row value.Row
		ok  bool
	}{
		{row(10, toronto, 100, "Active"), true},
		{row(500, toronto, 100, "Active"), false},
		{row(10, value.String_("Ottawa"), 100, "Active"), false},
		{row(10, toronto, 0, "Inactive"), true},
		{row(10, toronto, 0, "Active"), false},
		// NULL SCITY: IN is Unknown, CHECK passes (true-interpreted).
		{row(10, value.Null, 1, "Active"), true},
	} {
		if err := tbl.Validate(r.row); (err == nil) != r.ok {
			t.Errorf("row %d %s: Validate = %v, want accepted = %v", i, r.row, err, r.ok)
		}
	}
}
