package core

import (
	"reflect"
	"strings"
	"testing"

	"uniqopt/internal/catalog"
	"uniqopt/internal/sql/ast"
	"uniqopt/internal/sql/parser"
)

func traceCatalog(t *testing.T) *catalog.Catalog {
	t.Helper()
	c := catalog.New()
	for _, ddl := range []string{
		`CREATE TABLE SUPPLIER (SNO INTEGER NOT NULL, SNAME VARCHAR, SCITY VARCHAR, PRIMARY KEY (SNO))`,
		`CREATE TABLE PARTS (SNO INTEGER NOT NULL, PNO INTEGER NOT NULL, PNAME VARCHAR, COLOR VARCHAR, PRIMARY KEY (SNO, PNO))`,
		`CREATE TABLE NOKEY (A INTEGER, B INTEGER)`,
	} {
		st, err := parser.ParseStatement(ddl)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.DefineFromAST(st.(*ast.CreateTable)); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// TestTraceNamesDecidingKeys checks that the trace names, per FROM
// table, the candidate key that satisfied the coverage test — the
// observable form of Theorem 1's condition.
func TestTraceNamesDecidingKeys(t *testing.T) {
	an := NewAnalyzer(traceCatalog(t))
	v, err := an.AnalyzeSelect(mustSelect(t,
		`SELECT DISTINCT S.SNO, P.PNO, P.PNAME FROM SUPPLIER S, PARTS P
		 WHERE S.SNO = P.SNO AND P.COLOR = 'RED'`), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Unique {
		t.Fatalf("example 1 must be unique: %v", v)
	}
	tr := v.Trace
	if tr == nil {
		t.Fatal("verdict has no trace")
	}
	if len(tr.Tables) != 2 {
		t.Fatalf("expected 2 table decisions, got %+v", tr.Tables)
	}
	s, p := tr.Tables[0], tr.Tables[1]
	if s.Corr != "S" || !reflect.DeepEqual(s.SatisfiedBy, []string{"S.SNO"}) || s.Blocked {
		t.Errorf("S decision wrong: %+v", s)
	}
	if p.Corr != "P" || !reflect.DeepEqual(p.SatisfiedBy, []string{"P.SNO", "P.PNO"}) || p.Blocked {
		t.Errorf("P decision wrong: %+v", p)
	}
	if !reflect.DeepEqual(tr.EquivPairs, [][2]string{{"S.SNO", "P.SNO"}}) {
		t.Errorf("type-2 provenance wrong: %+v", tr.EquivPairs)
	}
	if len(tr.ConstCols) != 1 || tr.ConstCols[0] != "P.COLOR" {
		t.Errorf("type-1 provenance wrong: %+v", tr.ConstCols)
	}
	if !reflect.DeepEqual(tr.Closure, v.Bound) {
		t.Errorf("trace closure %v disagrees with verdict bound %v", tr.Closure, v.Bound)
	}
}

// TestTraceNamesBlockingTable checks the NO path: the trace must name
// the table whose key coverage failed, and still evaluate the rest.
func TestTraceNamesBlockingTable(t *testing.T) {
	an := NewAnalyzer(traceCatalog(t))
	v, err := an.AnalyzeSelect(mustSelect(t,
		`SELECT DISTINCT S.SNAME, P.PNO, P.PNAME FROM SUPPLIER S, PARTS P
		 WHERE S.SNO = P.SNO AND P.COLOR = 'RED'`), nil)
	if err != nil {
		t.Fatal(err)
	}
	if v.Unique {
		t.Fatalf("example 2 must not be provably unique: %v", v)
	}
	tr := v.Trace
	if tr == nil {
		t.Fatal("verdict has no trace")
	}
	if len(tr.Tables) != 2 {
		t.Fatalf("the trace must evaluate every table: %+v", tr.Tables)
	}
	if !tr.Tables[0].Blocked || tr.Tables[0].Corr != "S" {
		t.Errorf("S should be the blocking table: %+v", tr.Tables[0])
	}
	if !tr.Tables[1].Blocked || tr.Tables[1].Corr != "P" {
		// P projects PNO only: (SNO,PNO) is not covered either.
		t.Errorf("P should also be blocked here: %+v", tr.Tables[1])
	}
	if v.MissingTable != "S" {
		t.Errorf("MissingTable must stay the FIRST blocked table: %q", v.MissingTable)
	}
}

// TestTraceNoKeyReason pins the no-candidate-key reason string.
func TestTraceNoKeyReason(t *testing.T) {
	an := NewAnalyzer(traceCatalog(t))
	v, err := an.AnalyzeSelect(mustSelect(t, `SELECT DISTINCT N.A FROM NOKEY N`), nil)
	if err != nil {
		t.Fatal(err)
	}
	if v.Unique {
		t.Fatal("NOKEY has no candidate key: cannot be proven unique")
	}
	tr := v.Trace
	if len(tr.Tables) != 1 || !tr.Tables[0].Blocked || tr.Tables[0].Reason != "no candidate key declared" {
		t.Errorf("trace: %+v", tr.Tables)
	}
}

// TestTraceLinesDeterministic renders the same analysis twice (fresh
// analyzers) and requires byte-identical lines.
func TestTraceLinesDeterministic(t *testing.T) {
	q := `SELECT DISTINCT S.SNO, P.PNO, P.PNAME FROM SUPPLIER S, PARTS P
	      WHERE S.SNO = P.SNO AND P.COLOR = 'RED' AND S.SCITY = 'Toronto'`
	render := func() string {
		an := NewAnalyzer(traceCatalog(t))
		v, err := an.AnalyzeSelect(mustSelect(t, q), nil)
		if err != nil {
			t.Fatal(err)
		}
		return strings.Join(v.Trace.Lines(), "\n") + "\n" + strings.Join(v.KeysUsedLines(), "\n")
	}
	a, b := render(), render()
	if a != b {
		t.Errorf("trace rendering is nondeterministic:\n%s\n---\n%s", a, b)
	}
	if !strings.Contains(a, "key (S.SNO) ⊆ V") {
		t.Errorf("rendered trace should name the deciding key:\n%s", a)
	}
}
