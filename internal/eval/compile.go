package eval

import (
	"fmt"
	"math"
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
// constant is a non-NULL integer or string runs as a kernel: a comparison
// specialised to the constant's kind that reads the cell where it lies
// and decides by kind (newKernel, the one place the choice is made;
// BETWEEN bounds and IN-list items go through it too). A kernel answers
// only the case it was built for, a cell of the constant's kind; a NULL
// cell or a cell of another kind drops into the generic comparison, so
// compareValues stays the one owner of Unknown and of every error text.
// Column-against-column comparisons, and constants of other kinds, run
// the generic comparison alone. An AND whose every leaf is a kernel runs
// as one loop over its kernels, left to right, stopping at the first
// FALSE — what any tree of AND closures over the same leaves computes.
//
// A compiled predicate holds the values env had at the call, so it
// belongs to one execution; it is not part of the cached compiled
// statement. Without subquery leaves it is immutable and may be shared by goroutines.
// Predicates with EXISTS or IN-subquery leaves (ast.HasExists) are not
// compiled: the subquery callbacks need the whole environment, so the
// returned Pred binds each row into a private copy of env and runs
// Truth, and must stay on one goroutine.
func Compile(pred ast.Expr, cols []string, env *Env) Pred {
	return CompileFilter(pred, cols, env).Pred
}

// Filter is a WHERE clause compiled for an operator that sees its rows a
// batch at a time: Pred decides one row, and Select, when the clause is
// a conjunction of kernels, a whole batch.
type Filter struct {
	Pred Pred
	conj []conjunct // the clause's conjuncts, left to right; nil = Pred only
}

// CompileFilter is Compile, keeping the conjuncts of a clause that is a
// kernel or an AND of kernels for Select. Both come out of one pass: the
// conjunct list is the one Pred loops over.
func CompileFilter(pred ast.Expr, cols []string, env *Env) Filter {
	switch {
	case pred == nil:
		return Filter{Pred: func(value.Row) (tvl.Truth, error) { return tvl.True, nil }}
	case ast.HasExists(pred):
		return Filter{Pred: interpreted(pred, cols, env)}
	}
	c := compiler{cols: cols, env: env}
	p, conj := c.conjunction(pred)
	return Filter{Pred: p, conj: conj}
}

// selChunk is how many rows Select decides at once: its selection
// vector lives on the stack, so nothing is allocated for it.
const selChunk = 1024

// Select appends to out the rows of batch the clause accepts under the
// false-interpreted WHERE semantics, in order, deciding one conjunct at
// a time over the whole batch: the first narrows a selection vector of
// the batch's row indexes to the rows it accepts, each later one
// compacts that vector in place, and the rows left are appended to out,
// the only pointers written; grow (slices.Grow, or an allocator of the
// caller's) returns out with room for n more rows. ok is false, with out
// as it came, when the clause is not a conjunction of kernels or a
// kernel meets a cell it does not own. The caller then runs Pred over
// the batch, so the two paths agree on every row, truth value and error:
// a kernel decides an owned cell TRUE or FALSE, never Unknown and never
// an error, and each conjunct here reads exactly the rows Pred's loop
// would have reached it with.
func (f *Filter) Select(out, batch []value.Row, grow func(out []value.Row, n int) []value.Row) ([]value.Row, bool) {
	if len(f.conj) == 0 {
		return out, false
	}
	start := len(out)
	var buf [selChunk]uint16
	for len(batch) > 0 {
		chunk := batch[:min(len(batch), selChunk)]
		batch = batch[len(chunk):]
		sel := buf[:len(chunk)]
		for i := range sel {
			sel[i] = uint16(i)
		}
		for k := 0; k < len(f.conj) && len(sel) > 0; k++ {
			var ok bool
			if sel, ok = f.conj[k].keep(sel, chunk); !ok {
				return out[:start], false
			}
		}
		out = grow(out, len(sel))
		for _, i := range sel {
			out = append(out, chunk[i])
		}
	}
	return out, true
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

func (o operand) get(row value.Row) (value.Value, error) {
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
		p, _ := c.conjunction(x)
		return p
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
	return c.compareOperands(x, c.operand(x.L), c.operand(x.R))
}

// compareOperands compiles x from its compiled operands: a kernel when it
// is one, the generic comparison otherwise.
func (c *compiler) compareOperands(x *ast.Compare, l, r operand) Pred {
	if k, ok := newKernel(x, l, r); ok {
		p := (&k).pred()
		if c.tap != nil {
			kind, op := k.k.Kind(), x.Op
			if k.flip {
				op = op.Flip()
			}
			p = c.tap(kind, op, k.ord, p)
		}
		return p
	}
	return func(row value.Row) (tvl.Truth, error) {
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
}

// conjunct is one leaf of a compiled AND: p decides a row. When x is set
// the leaf is a kernel, "the cell at ord op k" for a constant k that is
// a non-NULL integer or string: it decides a cell of k's kind — a cell
// it owns — by itself, TRUE or FALSE, and hands every other cell, NULL
// or of another kind, to the comparison as written.
type conjunct struct {
	p Pred

	x    *ast.Compare // nil: not a kernel, p is all there is
	k    value.Value
	ord  int
	flip bool // k is x's left operand: x reads "k op' cell"

	// An integer kernel accepts the integers in [lo, hi] or, with out
	// set, the ones outside it: one subtraction and one unsigned
	// comparison a cell, whatever the operator.
	lo, hi int64
	out    bool
	// A string kernel accepts a cell c when acc[strings.Compare(c, s)+1].
	s   string
	str bool
	acc [3]bool
}

// newKernel builds x as a kernel from its compiled operands, or
// reports that x is not one: not a column of the row against a constant
// of the execution, or a constant that is NULL, of another kind, or an
// error.
func newKernel(x *ast.Compare, l, r operand) (conjunct, bool) {
	// column op constant, or constant op column read the other way round.
	col, k, op, flip := l, r, x.Op, false
	if col.ord < 0 {
		col, k, op, flip = r, l, x.Op.Flip(), true
	}
	if col.ord < 0 || k.ord >= 0 || k.err != nil {
		return conjunct{}, false
	}
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
		return conjunct{}, false
	}
	kn := conjunct{x: x, k: k.val, ord: col.ord, flip: flip, acc: [3]bool{lt, eq, gt}}
	if ki, ok := k.val.Int(); ok {
		kn.lo, kn.hi, kn.out = interval(lt, eq, gt, ki)
		return kn, true
	}
	if ks, ok := k.val.Str(); ok {
		kn.s, kn.str = ks, true
		return kn, true
	}
	return conjunct{}, false
}

// interval is the set of integers an integer kernel accepts, given what
// it yields below, at and above k: [lo, hi], or its complement with
// out. An empty set is the complement of every integer.
func interval(lt, eq, gt bool, k int64) (lo, hi int64, out bool) {
	switch {
	case lt && gt: // <>
		return k, k, true
	case lt && eq:
		return math.MinInt64, k, false
	case lt:
		if k == math.MinInt64 {
			return math.MinInt64, math.MaxInt64, true
		}
		return math.MinInt64, k - 1, false
	case gt && eq:
		return k, math.MaxInt64, false
	case gt:
		if k == math.MaxInt64 {
			return math.MinInt64, math.MaxInt64, true
		}
		return k + 1, math.MaxInt64, false
	}
	return k, k, false // =
}

// pred is kn's row predicate: a closure specialised to the constant's
// kind, which reads the cell where it lies and drops into generic for a
// cell it does not own. kn must be at its final address.
func (kn *conjunct) pred() Pred {
	ord := kn.ord
	if !kn.str {
		lo, span, out := kn.lo, uint64(kn.hi-kn.lo), kn.out
		return func(row value.Row) (tvl.Truth, error) {
			v, ok := row[ord].Int()
			if !ok {
				return kn.generic(row)
			}
			return tvl.Of((uint64(v-lo) <= span) != out), nil
		}
	}
	s, acc := kn.s, kn.acc
	if acc[0] == acc[2] {
		// = and <>: equality decides, and unequal lengths decide it
		// without reading either string.
		same := acc[1]
		return func(row value.Row) (tvl.Truth, error) {
			v, ok := row[ord].Str()
			if !ok {
				return kn.generic(row)
			}
			return tvl.Of((v == s) == same), nil
		}
	}
	return func(row value.Row) (tvl.Truth, error) {
		v, ok := row[ord].Str()
		if !ok {
			return kn.generic(row)
		}
		return tvl.Of(acc[strings.Compare(v, s)+1]), nil
	}
}

// generic is the comparison as written, for a cell kn does not own.
func (kn *conjunct) generic(row value.Row) (tvl.Truth, error) {
	l, r := row[kn.ord], kn.k
	if kn.flip {
		l, r = r, l
	}
	return compareValues(kn.x, l, r)
}

// keep compacts sel, indexes into rows, in place to the rows whose cell
// kn accepts, in order. owned is false as soon as kn meets a cell it
// does not own, and sel is then meaningless. The loops are pred's, with
// nothing called per row.
func (kn *conjunct) keep(sel []uint16, rows []value.Row) (_ []uint16, owned bool) {
	ord, n := kn.ord, 0
	if !kn.str {
		lo, span, out := kn.lo, uint64(kn.hi-kn.lo), kn.out
		for _, i := range sel {
			v, ok := rows[i][ord].Int()
			if !ok {
				return nil, false
			}
			if (uint64(v-lo) <= span) != out {
				sel[n] = i
				n++
			}
		}
		return sel[:n], true
	}
	s, acc := kn.s, kn.acc
	if acc[0] == acc[2] {
		for _, i := range sel {
			v, ok := rows[i][ord].Str()
			if !ok {
				return nil, false
			}
			if (v == s) == acc[1] {
				sel[n] = i
				n++
			}
		}
		return sel[:n], true
	}
	for _, i := range sel {
		v, ok := rows[i][ord].Str()
		if !ok {
			return nil, false
		}
		if acc[strings.Compare(v, s)+1] {
			sel[n] = i
			n++
		}
	}
	return sel[:n], true
}

// conjunction compiles e as the AND of its leaves: e's AND nodes, nested
// any way, flattened left to right, each leaf compiled once. The row
// predicate runs the leaves in turn and stops at the first FALSE, which
// is what every tree of AND closures over the same leaves computes. When
// every leaf is a kernel the leaves are returned as well, for Select; a
// tapped compiler compiles every leaf as a closure, so that the tap sees
// each kernel, and returns none.
func (c *compiler) conjunction(e ast.Expr) (Pred, []conjunct) {
	n := countLeaves(e)
	if _, ok := e.(*ast.Compare); n == 1 && !ok {
		return c.truth(e), nil
	}
	ks := c.leaves(make([]conjunct, 0, n), e) // filled in place: the kernels' final addresses
	all := true
	for i := range ks {
		if ks[i].x != nil {
			ks[i].p = ks[i].pred()
		} else {
			all = false
		}
	}
	p := ks[0].p
	if n > 1 {
		p = func(row value.Row) (tvl.Truth, error) {
			t := tvl.True
			for i := range ks {
				switch u, err := ks[i].p(row); {
				case err != nil:
					return tvl.Unknown, err
				case tvl.IsFalse(u):
					return tvl.False, nil
				case tvl.IsUnknown(u):
					t = tvl.Unknown
				}
			}
			return t, nil
		}
	}
	if !all {
		return p, nil
	}
	return p, ks
}

// countLeaves is the number of leaves of e's AND tree.
func countLeaves(e ast.Expr) int {
	if x, ok := e.(*ast.And); ok {
		return countLeaves(x.L) + countLeaves(x.R)
	}
	return 1
}

// leaves appends the leaves of e's AND tree to ks: a kernel as its
// unbuilt kernel, to be given its closure at its final place, anything
// else as its compiled predicate.
func (c *compiler) leaves(ks []conjunct, e ast.Expr) []conjunct {
	switch x := e.(type) {
	case *ast.And:
		return c.leaves(c.leaves(ks, x.L), x.R)
	case *ast.Compare:
		l, r := c.operand(x.L), c.operand(x.R)
		if k, ok := newKernel(x, l, r); ok && c.tap == nil {
			return append(ks, k)
		}
		return append(ks, conjunct{p: c.compareOperands(x, l, r)})
	}
	return append(ks, conjunct{p: c.truth(e)})
}
