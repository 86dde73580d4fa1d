package parser

import (
	"testing"

	"uniqopt/internal/sql/ast"
)

func TestParseInsert(t *testing.T) {
	st, err := ParseStatement(`INSERT INTO supplier VALUES (1, 'Smith', NULL, TRUE), (:sno, 'Jones', 'Paris', FALSE);`)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	ins, ok := st.(*ast.Insert)
	if !ok {
		t.Fatalf("got %T, want *ast.Insert", st)
	}
	if ins.Table != "SUPPLIER" {
		t.Errorf("table: got %q want SUPPLIER", ins.Table)
	}
	if len(ins.Rows) != 2 || len(ins.Rows[0]) != 4 || len(ins.Rows[1]) != 4 {
		t.Fatalf("rows: got %d rows (%v)", len(ins.Rows), ins.Rows)
	}
	if v, ok := ins.Rows[0][0].(*ast.IntLit); !ok || v.V != 1 {
		t.Errorf("row0 col0: got %#v want IntLit 1", ins.Rows[0][0])
	}
	if _, ok := ins.Rows[0][2].(*ast.NullLit); !ok {
		t.Errorf("row0 col2: got %#v want NullLit", ins.Rows[0][2])
	}
	if hv, ok := ins.Rows[1][0].(*ast.HostVar); !ok || hv.Name != "SNO" {
		t.Errorf("row1 col0: got %#v want HostVar SNO", ins.Rows[1][0])
	}

	// Round-trip: rendered SQL parses back to the same shape.
	again, err := ParseStatement(ins.SQL())
	if err != nil {
		t.Fatalf("re-parse %q: %v", ins.SQL(), err)
	}
	if again.(*ast.Insert).SQL() != ins.SQL() {
		t.Errorf("round trip: %q != %q", again.(*ast.Insert).SQL(), ins.SQL())
	}
}

func TestParseInsertErrors(t *testing.T) {
	for _, src := range []string{
		`INSERT supplier VALUES (1)`,                    // missing INTO
		`INSERT INTO supplier (1)`,                      // missing VALUES
		`INSERT INTO supplier VALUES 1`,                 // missing parens
		`INSERT INTO supplier VALUES (1 + 2)`,           // expressions not allowed
		`INSERT INTO supplier VALUES ()`,                // empty row
		`INSERT INTO supplier VALUES (SELECT 1 FROM t)`, // no subqueries
	} {
		if _, err := ParseStatement(src); err == nil {
			t.Errorf("%q: expected parse error", src)
		}
	}
}

func TestParseScriptWithInsert(t *testing.T) {
	stmts, err := ParseScript(`
		CREATE TABLE T (A INTEGER NOT NULL, PRIMARY KEY (A));
		INSERT INTO T VALUES (1), (2);
		SELECT A FROM T;
	`)
	if err != nil {
		t.Fatalf("script: %v", err)
	}
	if len(stmts) != 3 {
		t.Fatalf("got %d statements, want 3", len(stmts))
	}
	if _, ok := stmts[1].(*ast.Insert); !ok {
		t.Errorf("stmt 1: got %T, want *ast.Insert", stmts[1])
	}
}
