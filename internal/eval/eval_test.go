package eval

import (
	"testing"

	"uniqopt/internal/sql/ast"
	"uniqopt/internal/sql/parser"
	"uniqopt/internal/tvl"
	"uniqopt/internal/value"
)

func expr(t *testing.T, src string) ast.Expr {
	t.Helper()
	e, err := parser.ParseExpr(src)
	if err != nil {
		t.Fatalf("ParseExpr(%q): %v", src, err)
	}
	return e
}

func env(cols map[string]value.Value) *Env {
	return &Env{Cols: cols, Hosts: map[string]value.Value{
		"H": value.Int(7), "NAME": value.String_("Smith"),
	}}
}

func truth(t *testing.T, src string, e *Env) tvl.Truth {
	t.Helper()
	tr, err := Truth(expr(t, src), e)
	if err != nil {
		t.Fatalf("Truth(%q): %v", src, err)
	}
	return tr
}

func TestComparisons(t *testing.T) {
	e := env(map[string]value.Value{
		"A": value.Int(5), "B": value.Int(9), "N": value.Null,
		"S": value.String_("x"),
	})
	cases := []struct {
		src  string
		want tvl.Truth
	}{
		{"A = 5", tvl.True},
		{"A = 6", tvl.False},
		{"A <> 6", tvl.True},
		{"A < B", tvl.True},
		{"A >= B", tvl.False},
		{"B <= 9", tvl.True},
		{"B > 9", tvl.False},
		{"N = 5", tvl.Unknown},
		{"5 = N", tvl.Unknown},
		{"N = N", tvl.Unknown},
		{"N <> N", tvl.Unknown},
		{"S = 'x'", tvl.True},
		{"A = NULL", tvl.Unknown},
		{"A = :H", tvl.False},
		{"7 = :H", tvl.True},
	}
	for _, c := range cases {
		if got := truth(t, c.src, e); got != c.want {
			t.Errorf("%q = %v, want %v", c.src, got, c.want)
		}
	}
}

func TestBetweenAndIn3VL(t *testing.T) {
	e := env(map[string]value.Value{"A": value.Int(5), "N": value.Null})
	cases := []struct {
		src  string
		want tvl.Truth
	}{
		{"A BETWEEN 1 AND 9", tvl.True},
		{"A BETWEEN 6 AND 9", tvl.False},
		{"A NOT BETWEEN 6 AND 9", tvl.True},
		{"N BETWEEN 1 AND 9", tvl.Unknown},
		{"A BETWEEN N AND 9", tvl.Unknown},
		{"A BETWEEN 6 AND N", tvl.False}, // False AND Unknown = False
		{"A IN (1, 5, 9)", tvl.True},
		{"A IN (1, 2)", tvl.False},
		{"A NOT IN (1, 2)", tvl.True},
		{"A IN (1, N)", tvl.Unknown}, // False OR Unknown
		{"A IN (5, N)", tvl.True},    // True OR Unknown = True
		{"A NOT IN (1, N)", tvl.Unknown},
		{"N IN (1, 2)", tvl.Unknown},
	}
	for _, c := range cases {
		if got := truth(t, c.src, e); got != c.want {
			t.Errorf("%q = %v, want %v", c.src, got, c.want)
		}
	}
}

func TestIsNullIsTwoValued(t *testing.T) {
	e := env(map[string]value.Value{"A": value.Int(5), "N": value.Null})
	cases := []struct {
		src  string
		want tvl.Truth
	}{
		{"N IS NULL", tvl.True},
		{"N IS NOT NULL", tvl.False},
		{"A IS NULL", tvl.False},
		{"A IS NOT NULL", tvl.True},
		{"NULL IS NULL", tvl.True},
	}
	for _, c := range cases {
		if got := truth(t, c.src, e); got != c.want {
			t.Errorf("%q = %v, want %v", c.src, got, c.want)
		}
	}
}

func TestConnectives(t *testing.T) {
	e := env(map[string]value.Value{"A": value.Int(5), "N": value.Null})
	cases := []struct {
		src  string
		want tvl.Truth
	}{
		{"A = 5 AND N = 1", tvl.Unknown},
		{"A = 6 AND N = 1", tvl.False}, // short-circuit False
		{"A = 5 OR N = 1", tvl.True},   // short-circuit True
		{"A = 6 OR N = 1", tvl.Unknown},
		{"NOT (N = 1)", tvl.Unknown},
		{"NOT (A = 5)", tvl.False},
		{"TRUE", tvl.True},
		{"FALSE", tvl.False},
	}
	for _, c := range cases {
		if got := truth(t, c.src, e); got != c.want {
			t.Errorf("%q = %v, want %v", c.src, got, c.want)
		}
	}
}

func TestNilExprIsTrue(t *testing.T) {
	tr, err := Truth(nil, env(nil))
	if err != nil || !tvl.IsTrue(tr) {
		t.Errorf("Truth(nil) = %v, %v", tr, err)
	}
}

func TestQualifiedLookupFallback(t *testing.T) {
	e := env(map[string]value.Value{"S.SNO": value.Int(1), "SNO": value.Int(2)})
	v, err := Value(expr(t, "S.SNO = 0").(*ast.Compare).L, e)
	if err != nil || v.AsInt() != 1 {
		t.Errorf("qualified lookup = %v, %v", v, err)
	}
	// Qualifier missing from Cols: falls back to bare name.
	e2 := env(map[string]value.Value{"SNO": value.Int(2)})
	v, err = Value(expr(t, "S.SNO = 0").(*ast.Compare).L, e2)
	if err != nil || v.AsInt() != 2 {
		t.Errorf("fallback lookup = %v, %v", v, err)
	}
}

func TestErrors(t *testing.T) {
	e := env(map[string]value.Value{"A": value.Int(5), "S": value.String_("x")})
	for _, src := range []string{
		"Z = 1",        // unbound column
		"A = :MISSING", // unbound host var
		"A = 'text'",   // type mismatch
		"A BETWEEN 'x' AND 'y'",
	} {
		if _, err := Truth(expr(t, src), e); err == nil {
			t.Errorf("Truth(%q): expected error", src)
		}
	}
	// EXISTS without evaluator.
	if _, err := Truth(expr(t, "EXISTS (SELECT * FROM T WHERE T.A = 1)"), e); err == nil {
		t.Error("EXISTS without evaluator should fail")
	}
}

func TestExistsCallback(t *testing.T) {
	calls := 0
	e := &Env{
		Cols: map[string]value.Value{},
		Exists: func(sub *ast.Select, env *Env) (tvl.Truth, error) {
			calls++
			return tvl.True, nil
		},
	}
	if got := mustTruth(t, "EXISTS (SELECT * FROM T WHERE T.A = 1)", e); !tvl.IsTrue(got) {
		t.Errorf("EXISTS = %v", got)
	}
	if got := mustTruth(t, "NOT EXISTS (SELECT * FROM T WHERE T.A = 1)", e); !tvl.IsFalse(got) {
		t.Errorf("NOT EXISTS = %v", got)
	}
	if calls != 2 {
		t.Errorf("callback called %d times", calls)
	}
}

func mustTruth(t *testing.T, src string, e *Env) tvl.Truth {
	t.Helper()
	tr, err := Truth(expr(t, src), e)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}
