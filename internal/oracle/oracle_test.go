package oracle

import (
	"slices"
	"strings"
	"testing"

	"uniqopt/internal/catalog"
	"uniqopt/internal/sql/ast"
	"uniqopt/internal/sql/parser"
	"uniqopt/internal/storage"
	"uniqopt/internal/value"
)

var (
	null = value.Null
	i    = value.Int
)

// spell renders rows as one sorted list of their SQL spellings, so a
// bag compares as a string.
func spell(rows []value.Row) string {
	out := make([]string, len(rows))
	for k, r := range rows {
		out[k] = key(r)
	}
	slices.Sort(out)
	return strings.Join(out, " ")
}

func TestSetOpCountsAsTable2(t *testing.T) {
	one := func(vs ...value.Value) []value.Row {
		rows := make([]value.Row, len(vs))
		for k, v := range vs {
			rows[k] = value.Row{v}
		}
		return rows
	}
	l := one(i(1), i(1), i(1), i(2), null, null)
	r := one(i(1), i(1), i(3), null)
	for _, c := range []struct {
		except, all bool
		want        string
	}{
		{false, true, "1 1 NULL"}, // min(j, k)
		{false, false, "1 NULL"},  // j, k > 0
		{true, true, "1 2 NULL"},  // max(j − k, 0)
		{true, false, "2"},        // j > 0, k = 0
	} {
		if got := spell(SetOp(l, r, c.except, c.all)); got != c.want {
			t.Errorf("except=%v all=%v: %s, want %s", c.except, c.all, got, c.want)
		}
	}
}

func TestDistinctIsNullEquivalence(t *testing.T) {
	rows := []value.Row{
		{i(1), null}, {i(1), null}, {i(1), value.String_("1")}, {i(1), i(1)}, {null, null}, {i(1), i(1)},
	}
	got := Distinct(rows)
	want := []value.Row{{i(1), null}, {i(1), value.String_("1")}, {i(1), i(1)}, {null, null}}
	if key(value.Row{value.String_("a,b")}) == key(value.Row{value.String_("a"), value.String_("b")}) {
		t.Fatal("a row's spelling is ambiguous")
	}
	if len(got) != len(want) {
		t.Fatalf("Distinct = %v, want %v", got, want)
	}
	for k := range want {
		if !value.NullEqRows(got[k], want[k]) {
			t.Fatalf("Distinct = %v, want %v in first-occurrence order", got, want)
		}
	}
}

// smallDB is the paper's supplier/parts shape with a NULL where 3VL
// matters: part 13 has no supplier, which no comparison can find.
func smallDB(t *testing.T) *storage.DB {
	t.Helper()
	c := catalog.New()
	for _, src := range []string{
		`CREATE TABLE SUPPLIER (SNO INTEGER, SNAME VARCHAR, PRIMARY KEY (SNO))`,
		`CREATE TABLE PARTS (PNO INTEGER, SNO INTEGER, PRIMARY KEY (PNO))`,
	} {
		st, err := parser.ParseStatement(src)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.DefineFromAST(st.(*ast.CreateTable)); err != nil {
			t.Fatal(err)
		}
	}
	db := storage.NewDB(c)
	for _, ins := range []struct {
		table string
		row   value.Row
	}{
		{"SUPPLIER", value.Row{i(1), value.String_("Smith")}},
		{"SUPPLIER", value.Row{i(2), value.String_("Jones")}},
		{"SUPPLIER", value.Row{i(3), value.String_("Smith")}},
		{"PARTS", value.Row{i(10), i(1)}},
		{"PARTS", value.Row{i(11), i(1)}},
		{"PARTS", value.Row{i(12), i(3)}},
		{"PARTS", value.Row{i(13), null}},
	} {
		if err := db.Insert(ins.table, ins.row); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func TestQuery(t *testing.T) {
	db := smallDB(t)
	for _, c := range []struct{ sql, cols, want string }{
		{`SELECT S.SNAME FROM SUPPLIER S, PARTS P WHERE S.SNO = P.SNO`,
			"S.SNAME", "'Smith' 'Smith' 'Smith'"},
		{`SELECT DISTINCT S.SNAME FROM SUPPLIER S, PARTS P WHERE S.SNO = P.SNO`,
			"S.SNAME", "'Smith'"},
		// A correlated EXISTS, and its negation.
		{`SELECT S.SNO FROM SUPPLIER S WHERE EXISTS (SELECT * FROM PARTS P WHERE P.SNO = S.SNO)`,
			"S.SNO", "1 3"},
		{`SELECT S.SNO FROM SUPPLIER S WHERE NOT EXISTS (SELECT * FROM PARTS P WHERE P.SNO = S.SNO)`,
			"S.SNO", "2"},
		// NOT IN over a NULL is never TRUE; a host variable binds.
		{`SELECT S.SNO FROM SUPPLIER S WHERE S.SNO NOT IN (SELECT P.SNO FROM PARTS P)`,
			"S.SNO", ""},
		{`SELECT * FROM PARTS P WHERE P.SNO = :N OR P.SNO IS NULL`,
			"P.PNO P.SNO", "12,3 13,NULL"},
		{`SELECT P.SNO FROM PARTS P INTERSECT ALL SELECT S.SNO FROM SUPPLIER S`,
			"P.SNO", "1 3"},
		{`SELECT P.SNO FROM PARTS P EXCEPT ALL SELECT S.SNO FROM SUPPLIER S`,
			"P.SNO", "1 NULL"},
	} {
		q, err := parser.ParseQuery(c.sql)
		if err != nil {
			t.Fatal(err)
		}
		cols, rows, err := Query(db, q, map[string]value.Value{"N": i(3)})
		if err != nil {
			t.Fatalf("%s: %v", c.sql, err)
		}
		if got := strings.Join(cols, " "); got != c.cols {
			t.Errorf("%s: columns %s, want %s", c.sql, got, c.cols)
		}
		if got := spell(rows); got != c.want {
			t.Errorf("%s: rows %s, want %s", c.sql, got, c.want)
		}
	}
}

func TestQueryErrors(t *testing.T) {
	db := smallDB(t)
	for _, sql := range []string{
		`SELECT X FROM NOPE`,
		`SELECT NOPE FROM SUPPLIER S`,
		`SELECT S.SNO FROM SUPPLIER S WHERE S.SNO = :UNBOUND`,
		`SELECT S.SNO FROM SUPPLIER S WHERE S.SNAME = 1`,
		`SELECT S.SNO FROM SUPPLIER S WHERE S.SNO IN (SELECT * FROM PARTS P)`,
		`SELECT S.SNO FROM SUPPLIER S INTERSECT SELECT P.PNO, P.SNO FROM PARTS P`,
	} {
		q, err := parser.ParseQuery(sql)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := Query(db, q, nil); err == nil {
			t.Errorf("%s: no error", sql)
		}
	}
}
