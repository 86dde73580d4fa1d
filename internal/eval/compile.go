package eval

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"uniqopt/internal/sql/ast"
	"uniqopt/internal/tvl"
	"uniqopt/internal/value"
)

// Pred is a predicate compiled against a fixed column layout: it maps
// a row of that layout to the predicate's 3VL truth value.
type Pred func(row value.Row) (tvl.Truth, error)

// A WHERE clause is compiled in two steps, at two times.
//
// Prepare runs once per clause and layout — for the plan, once per
// compiled statement: column references become ordinals into the layout,
// and every leaf's shape is fixed — which ordinal it reads, its operator,
// whether the constant stands on the left, and where the constant comes
// from: a literal, or a slot of the execution's binding vector (Vars).
// It reads no value, so one Program serves every execution of the clause.
//
// Arm runs once per execution: it reads those slots and picks each
// comparison's kernel by its constant's kind (Conjunct.kernel, the one
// place the choice is made; BETWEEN bounds and IN-list items go through
// it too), so that evaluating the clause per row reads row ordinals
// instead of walking the AST over a name→value map. The result agrees
// with Truth on every row — same truth value, same error text, raised at
// the same point behind AND/OR short-circuits — for Truth with the slots
// and then the row bound.
//
// A comparison of a row column with something constant for the execution
// whose constant is a non-NULL integer or string runs as a kernel: a
// comparison specialised to the constant's kind that reads the cell where
// it lies and decides by kind. A kernel answers only the case it was
// built for, a cell of the constant's kind; a NULL cell or a cell of
// another kind drops into the generic comparison, so compareValues stays
// the one owner of a comparison's Unknown and error text. Column-against-column
// comparisons, and constants of other kinds, run the generic comparison
// alone. A clause's top-level AND is a vector of conjuncts, carved from
// the execution's Arena, that Filter.Pred runs left to right, stopping
// at the first FALSE — what any tree of AND closures over the same
// leaves computes. A kernel conjunct is decided by a method over its
// fields, so a clause whose leaves are all kernels arms with no closure
// and no allocation; any other leaf (OR, IN-list, BETWEEN, IS NULL, a
// subquery, a generic comparison) is a closure the conjunct calls.
//
// An EXISTS or IN-subquery leaf is prepared like any other, and runs its
// subquery for the row being decided through the Subquery the clause is
// armed with; the IN leaf owns the 3VL of NULLs on either side. A Filter
// with such a leaf shares its callback's state and must stay on one
// goroutine; any other armed Filter holds only values and may be shared
// by goroutines.

// Vars names the slots of a clause's binding vector: what it reads that
// is not a cell of its row. Hosts are the first slots, the statement's
// host variables, the n-th lifted literal as $n; Outer, from Base on, a
// subquery block's outer columns.
type Vars struct {
	Hosts, Outer []string
	Base         int
}

// Subquery runs the subquery sub of a clause for one row of the
// clause's layout and answers the values of its first column,
// duplicates included. With exists set, the caller asks only whether a
// row exists, and any values that show one will do.
type Subquery func(sub *ast.Select, row value.Row, exists bool) ([]value.Value, error)

// Program is a WHERE clause prepared against a column layout: its leaves
// with their ordinals and constant expressions, not yet their values. It
// is immutable. A nil *Program is the absent clause, TRUE on every row.
type Program struct {
	leaves []node // the clause's AND leaves, left to right
}

// Prepare compiles pred against the column layout cols and the vector
// vars names (nil: none). A nil pred yields a nil Program.
func Prepare(pred ast.Expr, cols []string, vars *Vars) *Program {
	if pred == nil {
		return nil
	}
	c := compiler{cols: cols, vars: vars}
	if vars == nil {
		c.vars = &Vars{}
	}
	return &Program{leaves: c.leaves(nil, pred)}
}

// Arm binds p's constants to one execution's binding vector and returns
// the clause ready to run; sub runs its subqueries, if it has any, and
// the clause's conjuncts are carved from arena (nil: the heap). The
// Filter belongs to that execution, and lives no longer than the arena's
// conjuncts.
func (p *Program) Arm(vals []value.Value, sub Subquery, arena Arena) Filter {
	if p == nil {
		return Filter{}
	}
	a := armer{vals: vals, sub: sub, arena: arena}
	return a.filter(p.leaves)
}

// Arena hands out the conjuncts Arm carves a clause's AND from: an
// execution's engine.Scratch, which recycles them with the rest of the
// execution's memory.
type Arena interface {
	Conjuncts(n int) []Conjunct
}

// Filter is a WHERE clause armed for one execution, for an operator that
// sees its rows a batch at a time: Pred decides one row, and Select, when
// the clause is a conjunction of kernels, a whole batch. The zero Filter
// is the absent clause, TRUE on every row.
type Filter struct {
	conj    []Conjunct // the clause's AND leaves, left to right
	kernels bool       // every conjunct is a kernel
}

// Empty reports whether f is the absent clause.
func (f Filter) Empty() bool { return len(f.conj) == 0 }

// Pred decides one row: the AND of f's conjuncts, run left to right and
// stopped at the first FALSE.
func (f Filter) Pred(row value.Row) (tvl.Truth, error) {
	t := tvl.True
	for i := range f.conj {
		switch u, err := f.conj[i].decide(row); {
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
	if !f.kernels {
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

// kernelTap, when a test sets it on the armer, sees every kernel chosen
// — its kind, its operator as applied to the column at ord — and may wrap
// it to watch the cells it meets.
type kernelTap func(kind value.Kind, op ast.CompareOp, ord int, p Pred) Pred

// ---- Prepare: the shape of every leaf ----

// nodeOp is what a prepared node computes.
type nodeOp uint8

const (
	opConst   nodeOp = iota // TRUE or FALSE as written
	opCompare               // x, over the operands l and r
	opBetween               // kids: the >= and <= comparisons, both always evaluated
	opIn                    // kids: one = comparison per list item, until one is TRUE
	opIsNull                // l IS [NOT] NULL
	opNot                   // kids[0]
	opAnd                   // kids: the AND tree's leaves
	opOr                    // kids: the two sides
	opExists                // [NOT] EXISTS q
	opInSub                 // l [NOT] IN q
	opError                 // not a boolean expression: err on every row
)

// node is one prepared boolean expression.
type node struct {
	op      nodeOp
	x       *ast.Compare // opCompare: the comparison, for its operator and error text
	q       *ast.Select  // opExists, opInSub: the subquery
	l, r    slot         // opCompare's operands; opIsNull's is l
	kids    []node
	negated bool
	t       tvl.Truth
	err     error
}

// slot is an operand as Prepare leaves it: the operand itself — the
// row's column, a literal's value, or the error evaluating it raises —
// unless at is a slot of the binding vector, read when armed.
type slot struct {
	operand
	at int
}

type compiler struct {
	cols []string
	vars *Vars
}

// leaves appends the prepared leaves of e's AND tree to ns.
func (c *compiler) leaves(ns []node, e ast.Expr) []node {
	if x, ok := e.(*ast.And); ok {
		return c.leaves(c.leaves(ns, x.L), x.R)
	}
	return append(ns, c.node(e))
}

func (c *compiler) node(e ast.Expr) node {
	switch x := e.(type) {
	case *ast.BoolLit:
		return node{op: opConst, t: tvl.Of(x.V)}
	case *ast.Compare:
		return c.compare(x)
	case *ast.Between:
		return node{op: opBetween, negated: x.Negated, kids: []node{
			c.compare(&ast.Compare{Op: ast.GeOp, L: x.X, R: x.Lo}),
			c.compare(&ast.Compare{Op: ast.LeOp, L: x.X, R: x.Hi}),
		}}
	case *ast.InList:
		items := make([]node, len(x.List))
		for i, item := range x.List {
			items[i] = c.compare(&ast.Compare{Op: ast.EqOp, L: x.X, R: item})
		}
		return node{op: opIn, negated: x.Negated, kids: items}
	case *ast.IsNull:
		return node{op: opIsNull, negated: x.Negated, l: c.slot(x.X)}
	case *ast.Not:
		return node{op: opNot, kids: []node{c.node(x.X)}}
	case *ast.And:
		return node{op: opAnd, kids: c.leaves(nil, x)}
	case *ast.Or:
		return node{op: opOr, kids: []node{c.node(x.L), c.node(x.R)}}
	case *ast.Exists:
		return node{op: opExists, negated: x.Negated, q: x.Query}
	case *ast.InSubquery:
		return node{op: opInSub, negated: x.Negated, l: c.slot(x.X), q: x.Query}
	default:
		return node{op: opError, err: fmt.Errorf("eval: %s is not a boolean expression", e.SQL())}
	}
}

func (c *compiler) compare(x *ast.Compare) node {
	return node{op: opCompare, x: x, l: c.slot(x.L), r: c.slot(x.R)}
}

func (c *compiler) slot(e ast.Expr) slot {
	switch x := e.(type) {
	case *ast.ColumnRef:
		return c.column(x)
	case *ast.HostVar:
		if i := slices.Index(c.vars.Hosts, x.Name); i >= 0 {
			return slot{operand: operand{ord: -1}, at: i}
		}
	}
	// A literal, or the error a host variable with no slot or a
	// non-operand raises.
	v, err := Value(e, &Env{})
	return slot{operand: operand{ord: -1, val: v, err: err}, at: -1}
}

// column mirrors Env.lookupColumn with the row bound over the outer
// columns: each name a reference may be bound under is tried in turn, in
// the layout — the last occurrence, the one binding the row into a map
// would leave — and then among the outer columns.
func (c *compiler) column(ref *ast.ColumnRef) slot {
	names := []string{ref.Column}
	if ref.Qualifier != "" {
		names = []string{ref.Qualifier + "." + ref.Column, ref.Column}
	}
	for _, name := range names {
		if ord := c.find(name); ord >= 0 {
			return slot{operand: operand{ord: ord}, at: -1}
		}
		if i := slices.Index(c.vars.Outer, name); i >= 0 {
			return slot{operand: operand{ord: -1}, at: c.vars.Base + i}
		}
	}
	return slot{operand: operand{ord: -1, err: fmt.Errorf("eval: unbound column %s", ref.SQL())}, at: -1}
}

// find is the last ordinal of the layout named name, or -1.
func (c *compiler) find(name string) int {
	for ord := len(c.cols) - 1; ord >= 0; ord-- {
		if c.cols[ord] == name {
			return ord
		}
	}
	return -1
}

// ---- Arm: one execution's constants and kernels ----

type armer struct {
	vals  []value.Value
	sub   Subquery
	arena Arena     // nil: the heap
	tap   kernelTap // tests only
}

// operand is an armed operand: the row ordinal to read (ord ≥ 0), or
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

func (a *armer) operand(s *slot) operand {
	if s.at >= 0 {
		return operand{ord: -1, val: a.vals[s.at]}
	}
	return s.operand
}

func (a *armer) truth(n *node) Pred {
	switch n.op {
	case opConst:
		t := n.t
		return func(value.Row) (tvl.Truth, error) { return t, nil }
	case opCompare:
		return a.compare(n)
	case opBetween:
		lo, hi := a.compare(&n.kids[0]), a.compare(&n.kids[1])
		negated := n.negated
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
	case opIn:
		items := make([]Pred, len(n.kids))
		for i := range n.kids {
			items[i] = a.compare(&n.kids[i])
		}
		negated := n.negated
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
	case opIsNull:
		o := a.operand(&n.l)
		negated := n.negated
		return func(row value.Row) (tvl.Truth, error) {
			v, err := o.get(row)
			if err != nil {
				return tvl.Unknown, err
			}
			return tvl.Of(v.IsNull() != negated), nil
		}
	case opNot:
		p := a.truth(&n.kids[0])
		return func(row value.Row) (tvl.Truth, error) {
			t, err := p(row)
			if err != nil {
				return tvl.Unknown, err
			}
			return tvl.Not(t), nil
		}
	case opAnd:
		return a.filter(n.kids).Pred
	case opOr:
		l, r := a.truth(&n.kids[0]), a.truth(&n.kids[1])
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
	case opExists:
		sub, q, negated := a.sub, n.q, n.negated
		return func(row value.Row) (tvl.Truth, error) {
			if sub == nil {
				return tvl.Unknown, fmt.Errorf("eval: no subquery evaluator for EXISTS")
			}
			vs, err := sub(q, row, true)
			if err != nil {
				return tvl.Unknown, err
			}
			return tvl.Of((len(vs) > 0) != negated), nil
		}
	case opInSub:
		o, sub, q, negated := a.operand(&n.l), a.sub, n.q, n.negated
		return func(row value.Row) (tvl.Truth, error) {
			if sub == nil {
				return tvl.Unknown, fmt.Errorf("eval: no subquery evaluator for IN")
			}
			x, err := o.get(row)
			if err != nil {
				return tvl.Unknown, err
			}
			vs, err := sub(q, row, false)
			if err != nil {
				return tvl.Unknown, err
			}
			out := tvl.False
			for _, v := range vs {
				switch {
				case x.IsNull() || v.IsNull():
					out = tvl.Unknown
				case !value.Comparable(x.Kind(), v.Kind()):
					return tvl.Unknown, fmt.Errorf("eval: IN compares %s with %s", x.Kind(), v.Kind())
				case tvl.IsTrue(value.Eq(x, v)):
					return tvl.Of(!negated), nil
				}
			}
			if negated {
				out = tvl.Not(out)
			}
			return out, nil
		}
	default:
		err := n.err
		return func(value.Row) (tvl.Truth, error) { return tvl.Unknown, err }
	}
}

// compare arms a comparison: a kernel when it is one, the generic
// comparison otherwise.
func (a *armer) compare(n *node) Pred {
	l, r := a.operand(&n.l), a.operand(&n.r)
	kn := &a.conjuncts(1)[0]
	if !kn.kernel(n.x, l, r) {
		return generic(n.x, l, r)
	}
	p := kn.decide
	if a.tap != nil {
		op := n.x.Op
		if kn.flip {
			op = op.Flip()
		}
		p = a.tap(kn.k.Kind(), op, kn.ord, p)
	}
	return p
}

// generic is the comparison x of two armed operands as written.
func generic(x *ast.Compare, l, r operand) Pred {
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

// filter arms the AND of leaves: one conjunct each, carved from the
// arena. A kernel conjunct needs no closure; a tapped armer arms every
// leaf as a closure instead, so that the tap sees each kernel, and the
// Filter it returns never runs Select.
func (a *armer) filter(leaves []node) Filter {
	ks := a.conjuncts(len(leaves))
	all := true
	for i := range leaves {
		n := &leaves[i]
		if n.op == opCompare && a.tap == nil {
			l, r := a.operand(&n.l), a.operand(&n.r)
			if ks[i].kernel(n.x, l, r) {
				continue
			}
			ks[i].p = generic(n.x, l, r)
		} else {
			ks[i].p = a.truth(n)
		}
		all = false
	}
	return Filter{conj: ks, kernels: all}
}

// conjuncts returns n zero conjuncts from the arena, or the heap.
func (a *armer) conjuncts(n int) []Conjunct {
	if a.arena == nil {
		return make([]Conjunct, n)
	}
	return a.arena.Conjuncts(n)
}

// kernelKind says how a conjunct decides a cell.
type kernelKind uint8

const (
	notKernel   kernelKind = iota // p decides the row
	intKernel                     // an integer cell in [lo, lo+span], or outside it with out
	strEqKernel                   // a string cell equal to s (= when acc[1], <> otherwise)
	strKernel                     // a string cell c when acc[strings.Compare(c, s)+1]
)

// Conjunct is one leaf of an armed AND: a kernel, or p, which decides a
// row. A kernel is "the cell at ord op k" for a constant k that is a
// non-NULL integer or string: it decides a cell of k's kind — a cell it
// owns — by itself, TRUE or FALSE, and hands every other cell, NULL or of
// another kind, to the comparison as written.
type Conjunct struct {
	p    Pred
	kind kernelKind

	x    *ast.Compare
	k    value.Value
	ord  int
	flip bool // k is x's left operand: x reads "k op' cell"

	// An integer kernel accepts the integers in [lo, lo+span] or, with out
	// set, the ones outside it: one subtraction and one unsigned
	// comparison a cell, whatever the operator.
	lo   int64
	span uint64
	out  bool
	// A string kernel compares with s; acc says what it yields when the
	// cell sorts before, with and after s.
	s   string
	acc [3]bool
}

// kernel makes kn, a zero Conjunct, x as a kernel built from its armed
// operands, or reports, leaving kn zero, that x is not one: not a column
// of the row against a constant of the execution, or a constant that is
// NULL, of another kind, or an error.
func (kn *Conjunct) kernel(x *ast.Compare, l, r operand) bool {
	// column op constant, or constant op column read the other way round.
	col, k, op, flip := l, r, x.Op, false
	if col.ord < 0 {
		col, k, op, flip = r, l, x.Op.Flip(), true
	}
	if col.ord < 0 || k.ord >= 0 || k.err != nil {
		return false
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
		return false
	}
	if ki, ok := k.val.Int(); ok {
		lo, hi, out := interval(lt, eq, gt, ki)
		kn.kind, kn.lo, kn.span, kn.out = intKernel, lo, uint64(hi-lo), out
	} else if ks, ok := k.val.Str(); ok {
		kn.kind, kn.s = strKernel, ks
		if lt == gt {
			// = and <>: equality decides, and unequal lengths decide it
			// without reading either string.
			kn.kind = strEqKernel
		}
	} else {
		return false
	}
	kn.x, kn.k, kn.ord, kn.flip, kn.acc = x, k.val, col.ord, flip, [3]bool{lt, eq, gt}
	return true
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

// decide is kn's truth value on row: p's for a leaf that is not a
// kernel; else the kernel's, read from the cell where it lies, or
// generic's for a cell it does not own.
func (kn *Conjunct) decide(row value.Row) (tvl.Truth, error) {
	switch kn.kind {
	case notKernel:
		return kn.p(row)
	case intKernel:
		if v, ok := row[kn.ord].Int(); ok {
			return tvl.Of((uint64(v-kn.lo) <= kn.span) != kn.out), nil
		}
	case strEqKernel:
		if v, ok := row[kn.ord].Str(); ok {
			return tvl.Of((v == kn.s) == kn.acc[1]), nil
		}
	default:
		if v, ok := row[kn.ord].Str(); ok {
			return tvl.Of(kn.acc[strings.Compare(v, kn.s)+1]), nil
		}
	}
	return kn.generic(row)
}

// generic is the comparison as written, for a cell kn does not own.
func (kn *Conjunct) generic(row value.Row) (tvl.Truth, error) {
	l, r := row[kn.ord], kn.k
	if kn.flip {
		l, r = r, l
	}
	return compareValues(kn.x, l, r)
}

// keep compacts sel, indexes into rows, in place to the rows whose cell
// kn accepts, in order. owned is false as soon as kn meets a cell it
// does not own, and sel is then meaningless. The loops are decide's, with
// nothing called per row.
func (kn *Conjunct) keep(sel []uint16, rows []value.Row) (_ []uint16, owned bool) {
	ord, n := kn.ord, 0
	switch kn.kind {
	case intKernel:
		lo, span, out := kn.lo, kn.span, kn.out
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
	case strEqKernel:
		s, same := kn.s, kn.acc[1]
		for _, i := range sel {
			v, ok := rows[i][ord].Str()
			if !ok {
				return nil, false
			}
			if (v == s) == same {
				sel[n] = i
				n++
			}
		}
	default:
		s, acc := kn.s, kn.acc
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
	}
	return sel[:n], true
}
