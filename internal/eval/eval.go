// Package eval evaluates SQL expressions under three-valued logic, for
// storage CHECKs, the planner's WHERE clauses and join predicates, the
// exact Theorem-1 checker in internal/core and the tests' oracle. The
// product prepares every clause once, subquery leaves included, and arms
// it per execution from a binding vector, by slot (compile.go). Truth
// walks an expression against Env, a name-keyed environment; only the
// oracle runs it.
package eval

import (
	"fmt"

	"uniqopt/internal/catalog"
	"uniqopt/internal/sql/ast"
	"uniqopt/internal/tvl"
	"uniqopt/internal/value"
)

// ExistsFunc evaluates an EXISTS subquery in the context of the
// current environment and returns its truth value.
type ExistsFunc func(sub *ast.Select, env *Env) (tvl.Truth, error)

// InFunc evaluates the single-column subquery of an IN predicate in
// the context of the current environment and returns its result
// values (duplicates included; they do not affect the truth value).
type InFunc func(sub *ast.Select, env *Env) ([]value.Value, error)

// Env is an evaluation environment: column bindings, host-variable
// bindings, an optional scope for canonical column resolution, and an
// optional subquery evaluator.
type Env struct {
	// Cols binds canonical column names to values. When Scope is set,
	// references are resolved through it to "CORRELATION.COLUMN" keys;
	// otherwise references are looked up literally ("QUAL.COL", then
	// bare "COL").
	Cols map[string]value.Value
	// Hosts binds host-variable names to values.
	Hosts map[string]value.Value
	// Scope, when non-nil, canonicalizes column references.
	Scope *catalog.Scope
	// Exists, when non-nil, evaluates EXISTS subqueries.
	Exists ExistsFunc
	// In, when non-nil, evaluates IN-subquery right-hand sides.
	In InFunc
}

// lookupColumn resolves a column reference to a value.
func (env *Env) lookupColumn(ref *ast.ColumnRef) (value.Value, error) {
	if env.Scope != nil {
		r, err := env.Scope.Resolve(ref)
		if err != nil {
			return value.Null, err
		}
		key := r.Qualified(env.Scope)
		v, ok := env.Cols[key]
		if !ok {
			return value.Null, fmt.Errorf("eval: column %s resolved but not bound", key)
		}
		return v, nil
	}
	if ref.Qualifier != "" {
		if v, ok := env.Cols[ref.Qualifier+"."+ref.Column]; ok {
			return v, nil
		}
	}
	if v, ok := env.Cols[ref.Column]; ok {
		return v, nil
	}
	return value.Null, fmt.Errorf("eval: unbound column %s", ref.SQL())
}

// Value evaluates an operand expression (column, literal, or host
// variable) to a SQL value.
func Value(e ast.Expr, env *Env) (value.Value, error) {
	switch x := e.(type) {
	case *ast.ColumnRef:
		return env.lookupColumn(x)
	case *ast.IntLit:
		return value.Int(x.V), nil
	case *ast.StringLit:
		return value.String_(x.V), nil
	case *ast.BoolLit:
		return value.Bool(x.V), nil
	case *ast.NullLit:
		return value.Null, nil
	case *ast.HostVar:
		v, ok := env.Hosts[x.Name]
		if !ok {
			return value.Null, fmt.Errorf("eval: unbound host variable :%s", x.Name)
		}
		return v, nil
	default:
		return value.Null, fmt.Errorf("eval: %s is not an operand", e.SQL())
	}
}

// Truth evaluates a boolean expression under 3VL. A nil expression is
// TRUE (an absent WHERE clause).
func Truth(e ast.Expr, env *Env) (tvl.Truth, error) {
	if e == nil {
		return tvl.True, nil
	}
	switch x := e.(type) {
	case *ast.BoolLit:
		return tvl.Of(x.V), nil
	case *ast.Compare:
		return compare(x, env)
	case *ast.Between:
		lo := &ast.Compare{Op: ast.GeOp, L: x.X, R: x.Lo}
		hi := &ast.Compare{Op: ast.LeOp, L: x.X, R: x.Hi}
		a, err := compare(lo, env)
		if err != nil {
			return tvl.Unknown, err
		}
		b, err := compare(hi, env)
		if err != nil {
			return tvl.Unknown, err
		}
		t := tvl.And(a, b)
		if x.Negated {
			t = tvl.Not(t)
		}
		return t, nil
	case *ast.InList:
		// X IN (a, b, ...) ≡ X=a OR X=b OR ... under 3VL.
		out := tvl.False
		for _, item := range x.List {
			t, err := compare(&ast.Compare{Op: ast.EqOp, L: x.X, R: item}, env)
			if err != nil {
				return tvl.Unknown, err
			}
			out = tvl.Or(out, t)
			if tvl.IsTrue(out) {
				break
			}
		}
		if x.Negated {
			out = tvl.Not(out)
		}
		return out, nil
	case *ast.IsNull:
		v, err := Value(x.X, env)
		if err != nil {
			return tvl.Unknown, err
		}
		// IS [NOT] NULL is two-valued.
		return tvl.Of(v.IsNull() != x.Negated), nil
	case *ast.Not:
		t, err := Truth(x.X, env)
		if err != nil {
			return tvl.Unknown, err
		}
		return tvl.Not(t), nil
	case *ast.And:
		l, err := Truth(x.L, env)
		if err != nil {
			return tvl.Unknown, err
		}
		if tvl.IsFalse(l) {
			return tvl.False, nil
		}
		r, err := Truth(x.R, env)
		if err != nil {
			return tvl.Unknown, err
		}
		return tvl.And(l, r), nil
	case *ast.Or:
		l, err := Truth(x.L, env)
		if err != nil {
			return tvl.Unknown, err
		}
		if tvl.IsTrue(l) {
			return tvl.True, nil
		}
		r, err := Truth(x.R, env)
		if err != nil {
			return tvl.Unknown, err
		}
		return tvl.Or(l, r), nil
	case *ast.InSubquery:
		// X IN (subquery) under 3VL: True if some result value equals
		// X, False if none could (all definite non-matches), Unknown
		// if no match but some comparison was Unknown (NULLs on either
		// side).
		if env.In == nil {
			return tvl.Unknown, fmt.Errorf("eval: no subquery evaluator for IN")
		}
		xv, err := Value(x.X, env)
		if err != nil {
			return tvl.Unknown, err
		}
		vals, err := env.In(x.Query, env)
		if err != nil {
			return tvl.Unknown, err
		}
		out := tvl.False
		for _, v := range vals {
			var t tvl.Truth
			if xv.IsNull() || v.IsNull() {
				t = tvl.Unknown
			} else if !value.Comparable(xv.Kind(), v.Kind()) {
				return tvl.Unknown, fmt.Errorf("eval: IN compares %s with %s", xv.Kind(), v.Kind())
			} else {
				t = value.Eq(xv, v)
			}
			out = tvl.Or(out, t)
			if tvl.IsTrue(out) {
				break
			}
		}
		if x.Negated {
			out = tvl.Not(out)
		}
		return out, nil
	case *ast.Exists:
		if env.Exists == nil {
			return tvl.Unknown, fmt.Errorf("eval: no subquery evaluator for EXISTS")
		}
		t, err := env.Exists(x.Query, env)
		if err != nil {
			return tvl.Unknown, err
		}
		if x.Negated {
			t = tvl.Not(t)
		}
		return t, nil
	default:
		return tvl.Unknown, fmt.Errorf("eval: %s is not a boolean expression", e.SQL())
	}
}

func compare(x *ast.Compare, env *Env) (tvl.Truth, error) {
	l, err := Value(x.L, env)
	if err != nil {
		return tvl.Unknown, err
	}
	r, err := Value(x.R, env)
	if err != nil {
		return tvl.Unknown, err
	}
	return compareValues(x, l, r)
}

// compareValues applies x's operator to its evaluated operands under
// 3VL: a NULL on either side is Unknown, mismatched kinds are an error.
func compareValues(x *ast.Compare, l, r value.Value) (tvl.Truth, error) {
	if l.IsNull() || r.IsNull() {
		return tvl.Unknown, nil
	}
	if !value.Comparable(l.Kind(), r.Kind()) {
		return tvl.Unknown, fmt.Errorf("eval: cannot compare %s with %s in %s",
			l.Kind(), r.Kind(), x.SQL())
	}
	c := value.Compare(l, r)
	switch x.Op {
	case ast.EqOp:
		return tvl.Of(c == 0), nil
	case ast.NeOp:
		return tvl.Of(c != 0), nil
	case ast.LtOp:
		return tvl.Of(c < 0), nil
	case ast.LeOp:
		return tvl.Of(c <= 0), nil
	case ast.GtOp:
		return tvl.Of(c > 0), nil
	case ast.GeOp:
		return tvl.Of(c >= 0), nil
	default:
		return tvl.Unknown, fmt.Errorf("eval: unknown comparison operator")
	}
}
