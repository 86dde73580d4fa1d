package eval

import (
	"fmt"
	"testing"

	"uniqopt/internal/sql/ast"
	"uniqopt/internal/tvl"
	"uniqopt/internal/value"
)

// stubIn returns an InFunc serving fixed values.
func stubIn(vals ...value.Value) InFunc {
	return func(sub *ast.Select, env *Env) ([]value.Value, error) {
		return vals, nil
	}
}

func inExpr(negated bool) *ast.InSubquery {
	return &ast.InSubquery{
		X:       &ast.ColumnRef{Column: "X"},
		Query:   &ast.Select{Items: []ast.SelectItem{{Star: true}}, From: []ast.TableRef{{Table: "T"}}},
		Negated: negated,
	}
}

// The 3VL truth table for IN-subqueries, the part the optimizer's
// NOT-IN refusal depends on: Truth's, and the compiled leaf's, each held
// to the table on its own, since a differential test between the two
// cannot see a mistake they share.
func TestInSubqueryTruthTable(t *testing.T) {
	cases := []struct {
		name string
		x    value.Value
		vals []value.Value
		neg  bool
		want tvl.Truth
	}{
		{"match", value.Int(1), []value.Value{value.Int(1), value.Int(2)}, false, tvl.True},
		{"no match", value.Int(9), []value.Value{value.Int(1), value.Int(2)}, false, tvl.False},
		{"empty set", value.Int(9), nil, false, tvl.False},
		{"null member no match", value.Int(9), []value.Value{value.Int(1), value.Null}, false, tvl.Unknown},
		{"null member with match", value.Int(1), []value.Value{value.Null, value.Int(1)}, false, tvl.True},
		{"null operand", value.Null, []value.Value{value.Int(1)}, false, tvl.Unknown},
		{"null operand empty set", value.Null, nil, false, tvl.False},
		{"not in: match", value.Int(1), []value.Value{value.Int(1)}, true, tvl.False},
		{"not in: no match", value.Int(9), []value.Value{value.Int(1)}, true, tvl.True},
		{"not in: null member", value.Int(9), []value.Value{value.Int(1), value.Null}, true, tvl.Unknown},
	}
	for _, c := range cases {
		env := &Env{
			Cols: map[string]value.Value{"X": c.x},
			In:   stubIn(c.vals...),
		}
		got, err := Truth(inExpr(c.neg), env)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got != c.want {
			t.Errorf("%s: got %v, want %v", c.name, got, c.want)
		}
		leaf := Prepare(inExpr(c.neg), []string{"X"}, nil).Arm(nil,
			func(*ast.Select, value.Row, bool) ([]value.Value, error) { return c.vals, nil }, nil)
		if got, err := leaf.Pred(value.Row{c.x}); err != nil || got != c.want {
			t.Errorf("%s: compiled leaf got %v, %v, want %v", c.name, got, err, c.want)
		}
	}
}

func TestInSubqueryErrors(t *testing.T) {
	// No evaluator.
	env := &Env{Cols: map[string]value.Value{"X": value.Int(1)}}
	if _, err := Truth(inExpr(false), env); err == nil {
		t.Error("IN without evaluator should fail")
	}
	// Unbound operand.
	env = &Env{Cols: map[string]value.Value{}, In: stubIn(value.Int(1))}
	if _, err := Truth(inExpr(false), env); err == nil {
		t.Error("unbound operand should fail")
	}
	// Type mismatch between operand and member.
	env = &Env{Cols: map[string]value.Value{"X": value.Int(1)},
		In: stubIn(value.String_("s"))}
	if _, err := Truth(inExpr(false), env); err == nil {
		t.Error("type mismatch should fail")
	}
	// Evaluator error propagates.
	env = &Env{Cols: map[string]value.Value{"X": value.Int(1)},
		In: func(sub *ast.Select, env *Env) ([]value.Value, error) {
			return nil, fmt.Errorf("boom")
		}}
	if _, err := Truth(inExpr(false), env); err == nil {
		t.Error("evaluator error should propagate")
	}
}

// Short-circuit: a True membership stops scanning further values.
func TestInSubqueryShortCircuit(t *testing.T) {
	served := 0
	env := &Env{
		Cols: map[string]value.Value{"X": value.Int(1)},
		In: func(sub *ast.Select, env *Env) ([]value.Value, error) {
			served++
			return []value.Value{value.Int(1), value.Null, value.Int(2)}, nil
		},
	}
	got, err := Truth(inExpr(false), env)
	if err != nil || !tvl.IsTrue(got) {
		t.Fatalf("got %v, %v", got, err)
	}
	if served != 1 {
		t.Errorf("subquery evaluated %d times, want 1", served)
	}
}
