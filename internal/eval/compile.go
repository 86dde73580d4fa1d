package eval

import (
	"fmt"
	"strings"

	"uniqopt/internal/sql/ast"
	"uniqopt/internal/tvl"
	"uniqopt/internal/value"
)

// Pred is a predicate compiled against a fixed column layout: it maps
// a row of that layout to the predicate's 3VL truth value.
type Pred func(row value.Row) (tvl.Truth, error)

// Compile binds pred to the column layout cols once, so that
// evaluating it per row is a walk over closures reading row ordinals
// instead of a walk over the AST reading a name→value map. Everything
// that does not depend on the row is settled here: column references
// become ordinals into cols, and literals, host variables and the
// outer bindings in env.Cols become constants. The result agrees with
// Truth on every row — same truth value, same error text, raised at
// the same point behind AND/OR short-circuits — for Truth evaluated in
// env with the row's values bound over env.Cols under the names cols.
//
// A comparison of a row column with something constant for the execution
// — a literal, a host variable, a lifted $n, an outer binding — whose
// constant is a non-NULL integer or string runs as a kernel: a closure
// specialised to the constant's kind that reads the cell where it lies
// and decides by kind (kernel, the one place the choice is made; BETWEEN
// bounds and IN-list items go through it too). A kernel answers only the
// case it was built for, a cell of the constant's kind; a NULL cell or a
// cell of another kind drops into the generic comparison, so
// compareValues stays the one owner of Unknown and of every error text.
// Column-against-column comparisons, and constants of other kinds, run
// the generic comparison alone.
//
// A compiled predicate holds the values env had at the call, so it
// belongs to one execution; it is not part of the cached compiled
// statement. Without subquery leaves it is immutable and may be shared by goroutines.
// Predicates with EXISTS or IN-subquery leaves (ast.HasExists) are not
// compiled: the subquery callbacks need the whole environment, so the
// returned Pred binds each row into a private copy of env and runs
// Truth, and must stay on one goroutine.
func Compile(pred ast.Expr, cols []string, env *Env) Pred {
	if pred == nil {
		return func(value.Row) (tvl.Truth, error) { return tvl.True, nil }
	}
	if ast.HasExists(pred) {
		return interpreted(pred, cols, env)
	}
	c := compiler{cols: cols, env: env}
	return c.truth(pred)
}

// kernelTap, when a test sets it on the compiler, sees every kernel
// chosen — its kind, its operator as applied to the column at ord — and
// may wrap it to watch the cells it meets.
type kernelTap func(kind value.Kind, op ast.CompareOp, ord int, p Pred) Pred

// interpreted is Compile's fallback: Truth over a private environment
// rebound per row.
func interpreted(pred ast.Expr, cols []string, proto *Env) Pred {
	env := &Env{
		Cols:   make(map[string]value.Value, len(proto.Cols)+len(cols)),
		Hosts:  proto.Hosts,
		Scope:  proto.Scope,
		Exists: proto.Exists,
		In:     proto.In,
	}
	for k, v := range proto.Cols {
		env.Cols[k] = v
	}
	return func(row value.Row) (tvl.Truth, error) {
		for i, c := range cols {
			env.Cols[c] = row[i]
		}
		return Truth(pred, env)
	}
}

type compiler struct {
	cols []string
	env  *Env
	tap  kernelTap // tests only
}

// operand is a compiled operand: the row ordinal to read (ord ≥ 0), or
// what evaluating it yields on every row — a constant, or the error
// Value raises for it.
type operand struct {
	ord int
	val value.Value
	err error
}

func (o *operand) get(row value.Row) (value.Value, error) {
	if o.ord >= 0 {
		return row[o.ord], nil
	}
	return o.val, o.err
}

func (c *compiler) operand(e ast.Expr) operand {
	if ref, ok := e.(*ast.ColumnRef); ok {
		return c.column(ref)
	}
	// Literals, host variables and the not-an-operand error do not
	// depend on the row.
	v, err := Value(e, c.env)
	return operand{ord: -1, val: v, err: err}
}

// column mirrors Env.lookupColumn with the row bound over env.Cols.
func (c *compiler) column(ref *ast.ColumnRef) operand {
	if sc := c.env.Scope; sc != nil {
		r, err := sc.Resolve(ref)
		if err != nil {
			return operand{ord: -1, err: err}
		}
		key := r.Qualified(sc)
		if o, ok := c.bound(key); ok {
			return o
		}
		return operand{ord: -1, err: fmt.Errorf("eval: column %s resolved but not bound", key)}
	}
	if ref.Qualifier != "" {
		if o, ok := c.bound(ref.Qualifier + "." + ref.Column); ok {
			return o
		}
	}
	if o, ok := c.bound(ref.Column); ok {
		return o
	}
	return operand{ord: -1, err: fmt.Errorf("eval: unbound column %s", ref.SQL())}
}

// bound finds name among the row's columns — the last occurrence, the
// one binding the row into a map would leave — and then among the
// outer bindings.
func (c *compiler) bound(name string) (operand, bool) {
	for i := len(c.cols) - 1; i >= 0; i-- {
		if c.cols[i] == name {
			return operand{ord: i}, true
		}
	}
	if v, ok := c.env.Cols[name]; ok {
		return operand{ord: -1, val: v}, true
	}
	return operand{}, false
}

func (c *compiler) truth(e ast.Expr) Pred {
	switch x := e.(type) {
	case *ast.BoolLit:
		t := tvl.Of(x.V)
		return func(value.Row) (tvl.Truth, error) { return t, nil }
	case *ast.Compare:
		return c.compare(x)
	case *ast.Between:
		// Both bounds are always evaluated, as Truth does.
		lo := c.compare(&ast.Compare{Op: ast.GeOp, L: x.X, R: x.Lo})
		hi := c.compare(&ast.Compare{Op: ast.LeOp, L: x.X, R: x.Hi})
		negated := x.Negated
		return func(row value.Row) (tvl.Truth, error) {
			a, err := lo(row)
			if err != nil {
				return tvl.Unknown, err
			}
			b, err := hi(row)
			if err != nil {
				return tvl.Unknown, err
			}
			t := tvl.And(a, b)
			if negated {
				t = tvl.Not(t)
			}
			return t, nil
		}
	case *ast.InList:
		items := make([]Pred, len(x.List))
		for i, item := range x.List {
			items[i] = c.compare(&ast.Compare{Op: ast.EqOp, L: x.X, R: item})
		}
		negated := x.Negated
		return func(row value.Row) (tvl.Truth, error) {
			out := tvl.False
			for _, item := range items {
				t, err := item(row)
				if err != nil {
					return tvl.Unknown, err
				}
				out = tvl.Or(out, t)
				if tvl.IsTrue(out) {
					break
				}
			}
			if negated {
				out = tvl.Not(out)
			}
			return out, nil
		}
	case *ast.IsNull:
		o := c.operand(x.X)
		negated := x.Negated
		return func(row value.Row) (tvl.Truth, error) {
			v, err := o.get(row)
			if err != nil {
				return tvl.Unknown, err
			}
			return tvl.Of(v.IsNull() != negated), nil
		}
	case *ast.Not:
		p := c.truth(x.X)
		return func(row value.Row) (tvl.Truth, error) {
			t, err := p(row)
			if err != nil {
				return tvl.Unknown, err
			}
			return tvl.Not(t), nil
		}
	case *ast.And:
		l, r := c.truth(x.L), c.truth(x.R)
		return func(row value.Row) (tvl.Truth, error) {
			a, err := l(row)
			if err != nil {
				return tvl.Unknown, err
			}
			if tvl.IsFalse(a) {
				return tvl.False, nil
			}
			b, err := r(row)
			if err != nil {
				return tvl.Unknown, err
			}
			return tvl.And(a, b), nil
		}
	case *ast.Or:
		l, r := c.truth(x.L), c.truth(x.R)
		return func(row value.Row) (tvl.Truth, error) {
			a, err := l(row)
			if err != nil {
				return tvl.Unknown, err
			}
			if tvl.IsTrue(a) {
				return tvl.True, nil
			}
			b, err := r(row)
			if err != nil {
				return tvl.Unknown, err
			}
			return tvl.Or(a, b), nil
		}
	default:
		err := fmt.Errorf("eval: %s is not a boolean expression", e.SQL())
		return func(value.Row) (tvl.Truth, error) { return tvl.Unknown, err }
	}
}

func (c *compiler) compare(x *ast.Compare) Pred {
	l, r := c.operand(x.L), c.operand(x.R)
	generic := func(row value.Row) (tvl.Truth, error) {
		lv, err := l.get(row)
		if err != nil {
			return tvl.Unknown, err
		}
		rv, err := r.get(row)
		if err != nil {
			return tvl.Unknown, err
		}
		return compareValues(x, lv, rv)
	}
	// column op constant, or constant op column read the other way round.
	col, k, op := &l, &r, x.Op
	if col.ord < 0 {
		col, k, op = &r, &l, x.Op.Flip()
	}
	if col.ord < 0 || k.ord >= 0 || k.err != nil {
		return generic
	}
	p := kernel(op, col.ord, k.val, generic)
	if p == nil {
		return generic
	}
	if c.tap != nil {
		p = c.tap(k.val.Kind(), op, col.ord, p)
	}
	return p
}

// kernel returns "the cell at ord op k" specialised to k's kind, or nil
// when k is not a non-NULL integer or string. The closure decides cells
// of k's kind by itself and hands every other row — a NULL cell, a cell
// of another kind — to generic, the comparison as written.
func kernel(op ast.CompareOp, ord int, k value.Value, generic Pred) Pred {
	// What the comparison yields when the cell sorts before, with and
	// after the constant.
	var lt, eq, gt bool
	switch op {
	case ast.EqOp:
		eq = true
	case ast.NeOp:
		lt, gt = true, true
	case ast.LtOp:
		lt = true
	case ast.LeOp:
		lt, eq = true, true
	case ast.GtOp:
		gt = true
	case ast.GeOp:
		eq, gt = true, true
	default:
		return nil
	}
	below, same, above := tvl.Of(lt), tvl.Of(eq), tvl.Of(gt)
	if ki, ok := k.Int(); ok {
		return func(row value.Row) (tvl.Truth, error) {
			v, ok := row[ord].Int()
			switch {
			case !ok:
				return generic(row)
			case v < ki:
				return below, nil
			case v > ki:
				return above, nil
			}
			return same, nil
		}
	}
	ks, ok := k.Str()
	if !ok {
		return nil
	}
	if lt == gt {
		// = and <>: equality decides, and unequal lengths decide it
		// without reading either string.
		return func(row value.Row) (tvl.Truth, error) {
			v, ok := row[ord].Str()
			switch {
			case !ok:
				return generic(row)
			case v == ks:
				return same, nil
			}
			return below, nil
		}
	}
	return func(row value.Row) (tvl.Truth, error) {
		v, ok := row[ord].Str()
		if !ok {
			return generic(row)
		}
		switch c := strings.Compare(v, ks); {
		case c < 0:
			return below, nil
		case c > 0:
			return above, nil
		}
		return same, nil
	}
}
