package norm

import (
	"strings"
	"testing"

	"uniqopt/internal/sql/ast"
	"uniqopt/internal/sql/parser"
)

func expr(t *testing.T, src string) ast.Expr {
	t.Helper()
	e, err := parser.ParseExpr(src)
	if err != nil {
		t.Fatalf("ParseExpr(%q): %v", src, err)
	}
	return e
}

func TestNNFComparisons(t *testing.T) {
	cases := []struct{ in, want string }{
		{"NOT (A = 1)", "A <> 1"},
		{"NOT (A <> 1)", "A = 1"},
		{"NOT (A < 1)", "A >= 1"},
		{"NOT (A <= 1)", "A > 1"},
		{"NOT (A > 1)", "A <= 1"},
		{"NOT (A >= 1)", "A < 1"},
		{"NOT (NOT (A = 1))", "A = 1"},
	}
	for _, c := range cases {
		if got := NNF(expr(t, c.in)).SQL(); got != c.want {
			t.Errorf("NNF(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestNNFDeMorgan(t *testing.T) {
	got := NNF(expr(t, "NOT (A = 1 AND B = 2)")).SQL()
	if got != "A <> 1 OR B <> 2" {
		t.Errorf("NNF = %q", got)
	}
	got = NNF(expr(t, "NOT (A = 1 OR B = 2)")).SQL()
	if got != "A <> 1 AND B <> 2" {
		t.Errorf("NNF = %q", got)
	}
}

func TestNNFBetweenAndIn(t *testing.T) {
	got := NNF(expr(t, "A BETWEEN 1 AND 9")).SQL()
	if got != "A >= 1 AND A <= 9" {
		t.Errorf("BETWEEN expansion = %q", got)
	}
	got = NNF(expr(t, "A NOT BETWEEN 1 AND 9")).SQL()
	if got != "A < 1 OR A > 9" {
		t.Errorf("NOT BETWEEN expansion = %q", got)
	}
	got = NNF(expr(t, "NOT (A BETWEEN 1 AND 9)")).SQL()
	if got != "A < 1 OR A > 9" {
		t.Errorf("NOT(BETWEEN) expansion = %q", got)
	}
	got = NNF(expr(t, "SCITY IN ('A', 'B')")).SQL()
	if got != "SCITY = 'A' OR SCITY = 'B'" {
		t.Errorf("IN expansion = %q", got)
	}
	got = NNF(expr(t, "SCITY NOT IN ('A', 'B')")).SQL()
	if got != "SCITY <> 'A' AND SCITY <> 'B'" {
		t.Errorf("NOT IN expansion = %q", got)
	}
}

func TestNNFIsNullAndExists(t *testing.T) {
	if got := NNF(expr(t, "NOT (A IS NULL)")).SQL(); got != "A IS NOT NULL" {
		t.Errorf("NNF = %q", got)
	}
	if got := NNF(expr(t, "NOT (A IS NOT NULL)")).SQL(); got != "A IS NULL" {
		t.Errorf("NNF = %q", got)
	}
	e := NNF(expr(t, "NOT EXISTS (SELECT * FROM T WHERE T.A = 1)"))
	if ex, ok := e.(*ast.Exists); !ok || !ex.Negated {
		t.Errorf("NNF of NOT EXISTS = %T", e)
	}
	e = NNF(expr(t, "NOT (NOT EXISTS (SELECT * FROM T WHERE T.A = 1))"))
	if ex, ok := e.(*ast.Exists); !ok || ex.Negated {
		t.Errorf("double-negated EXISTS = %T", e)
	}
}

func TestNNFBoolLit(t *testing.T) {
	if got := NNF(expr(t, "NOT (TRUE)")).SQL(); got != "FALSE" {
		t.Errorf("NNF = %q", got)
	}
}

func TestNNFDoesNotMutateInput(t *testing.T) {
	in := expr(t, "NOT (A = 1 AND B BETWEEN 2 AND 3)")
	before := in.SQL()
	_ = NNF(in)
	if in.SQL() != before {
		t.Error("NNF mutated its input")
	}
}

func TestCNFSimple(t *testing.T) {
	// (A=1 OR B=2) AND C=3 is already CNF.
	cs, err := CNF(expr(t, "(A = 1 OR B = 2) AND C = 3"), 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(cs) != 2 || len(cs[0]) != 2 || len(cs[1]) != 1 {
		t.Fatalf("clauses = %s", SQLClauses(cs))
	}
}

func TestCNFDistribution(t *testing.T) {
	// A=1 OR (B=2 AND C=3) → (A=1 OR B=2) AND (A=1 OR C=3).
	cs, err := CNF(expr(t, "A = 1 OR (B = 2 AND C = 3)"), 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(cs) != 2 || len(cs[0]) != 2 || len(cs[1]) != 2 {
		t.Fatalf("clauses = %s", SQLClauses(cs))
	}
	s := SQLClauses(cs)
	if !strings.Contains(s, "A = 1 OR B = 2") || !strings.Contains(s, "A = 1 OR C = 3") {
		t.Errorf("distribution wrong: %s", s)
	}
}

func TestCNFNil(t *testing.T) {
	cs, err := CNF(nil, 10)
	if err != nil || cs != nil {
		t.Errorf("CNF(nil) = %v, %v", cs, err)
	}
	if SQLClauses(nil) != "TRUE" {
		t.Error("empty conjunction should print TRUE")
	}
}

func TestCNFSizeCap(t *testing.T) {
	// (a1 AND b1) OR (a2 AND b2) OR ... blows up multiplicatively.
	src := "(A1 = 1 AND B1 = 1)"
	for i := 2; i <= 8; i++ {
		src += " OR (A" + string(rune('0'+i)) + " = 1 AND B" + string(rune('0'+i)) + " = 1)"
	}
	if _, err := CNF(expr(t, src), 16); err != ErrTooLarge {
		t.Errorf("expected ErrTooLarge, got %v", err)
	}
	if _, err := CNF(expr(t, src), 100000); err != nil {
		t.Errorf("large cap should succeed, got %v", err)
	}
}

func TestSQLClauses(t *testing.T) {
	cs, _ := CNF(expr(t, "A = 1 AND (B = 2 OR C = 3)"), 10)
	got := SQLClauses(cs)
	if got != "A = 1 AND (B = 2 OR C = 3)" {
		t.Errorf("SQLClauses = %q", got)
	}
}
