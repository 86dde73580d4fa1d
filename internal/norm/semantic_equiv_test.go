package norm

import (
	"fmt"
	"math/rand"
	"testing"

	"uniqopt/internal/eval"
	"uniqopt/internal/sql/ast"
	"uniqopt/internal/tvl"
	"uniqopt/internal/value"
)

// randExpr builds a random boolean expression over columns A..D with
// comparisons, BETWEEN, IN, IS NULL, NOT, AND, OR.
func randExpr(r *rand.Rand, depth int) ast.Expr {
	cols := []string{"A", "B", "C", "D"}
	col := func() ast.Expr { return &ast.ColumnRef{Column: cols[r.Intn(len(cols))]} }
	lit := func() ast.Expr { return &ast.IntLit{V: int64(r.Intn(3))} }
	operand := func() ast.Expr {
		if r.Intn(3) == 0 {
			return lit()
		}
		return col()
	}
	if depth <= 0 || r.Intn(3) == 0 {
		switch r.Intn(4) {
		case 0:
			ops := []ast.CompareOp{ast.EqOp, ast.NeOp, ast.LtOp, ast.LeOp, ast.GtOp, ast.GeOp}
			return &ast.Compare{Op: ops[r.Intn(len(ops))], L: operand(), R: operand()}
		case 1:
			return &ast.Between{X: col(), Lo: lit(), Hi: lit(), Negated: r.Intn(2) == 0}
		case 2:
			n := 1 + r.Intn(3)
			list := make([]ast.Expr, n)
			for i := range list {
				list[i] = lit()
			}
			return &ast.InList{X: col(), List: list, Negated: r.Intn(2) == 0}
		default:
			return &ast.IsNull{X: col(), Negated: r.Intn(2) == 0}
		}
	}
	switch r.Intn(3) {
	case 0:
		return &ast.Not{X: randExpr(r, depth-1)}
	case 1:
		return &ast.And{L: randExpr(r, depth-1), R: randExpr(r, depth-1)}
	default:
		return &ast.Or{L: randExpr(r, depth-1), R: randExpr(r, depth-1)}
	}
}

// envs enumerates all assignments of {NULL, 0, 1, 2} to A..D — 256
// environments, exhaustive for the generator's value space.
func allEnvs() []*eval.Env {
	domain := []value.Value{value.Null, value.Int(0), value.Int(1), value.Int(2)}
	cols := []string{"A", "B", "C", "D"}
	var out []*eval.Env
	var rec func(i int, m map[string]value.Value)
	rec = func(i int, m map[string]value.Value) {
		if i == len(cols) {
			cp := make(map[string]value.Value, len(m))
			for k, v := range m {
				cp[k] = v
			}
			out = append(out, &eval.Env{Cols: cp})
			return
		}
		for _, v := range domain {
			m[cols[i]] = v
			rec(i+1, m)
		}
	}
	rec(0, map[string]value.Value{})
	return out
}

func evalClauses(t *testing.T, cs []Clause, env *eval.Env) tvl.Truth {
	t.Helper()
	out := tvl.True
	for _, cl := range cs {
		c := tvl.False
		for _, atom := range cl {
			tr, err := eval.Truth(atom, env)
			if err != nil {
				t.Fatal(err)
			}
			c = tvl.Or(c, tr)
		}
		out = tvl.And(out, c)
	}
	return out
}

// Property: NNF and CNF both preserve three-valued semantics —
// verified exhaustively over every NULL-inclusive environment for each
// random expression.
func TestNormalFormsPreserve3VLSemantics(t *testing.T) {
	envs := allEnvs()
	r := rand.New(rand.NewSource(2024))
	for trial := 0; trial < 60; trial++ {
		e := randExpr(r, 3)
		nnf := NNF(e)
		cs, err := CNF(e, 1<<20)
		if err != nil {
			t.Fatalf("conversion failed: %v (expr %s)", err, e.SQL())
		}
		for _, env := range envs {
			want, err := eval.Truth(e, env)
			if err != nil {
				t.Fatal(err)
			}
			if got, err := eval.Truth(nnf, env); err != nil || got != want {
				t.Fatalf("NNF changed semantics:\n expr: %s\n nnf:  %s\n env A=%v B=%v C=%v D=%v: %v vs %v (err %v)",
					e.SQL(), nnf.SQL(), env.Cols["A"], env.Cols["B"], env.Cols["C"], env.Cols["D"], got, want, err)
			}
			if got := evalClauses(t, cs, env); got != want {
				t.Fatalf("CNF changed semantics:\n expr: %s\n cnf:  %s\n env: %v\n got %v want %v",
					e.SQL(), SQLClauses(cs), fmtEnv(env), got, want)
			}
		}
	}
}

func fmtEnv(env *eval.Env) string {
	return fmt.Sprintf("A=%v B=%v C=%v D=%v",
		env.Cols["A"], env.Cols["B"], env.Cols["C"], env.Cols["D"])
}
