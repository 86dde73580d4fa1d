package plan

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"uniqopt/internal/catalog"
	"uniqopt/internal/engine"
	"uniqopt/internal/eval"
	"uniqopt/internal/sql/ast"
	"uniqopt/internal/storage"
	"uniqopt/internal/value"
)

// The physical plan is a value: Compile turns a statement into one
// immutable tree of the operators below — access → filter → hash join /
// index join / product → residual filter → project → distinct → sort-merge set
// operation — and everything after that only reads it. Two things are
// decided at two times:
//
//   - at compile, once per statement shape: the join order, every
//     join's output layout — which columns of its inputs it emits, in
//     what order: the ones read above it and no others (planSelect's
//     liveness walk), the top join of a block exactly the projection's,
//     so that the projection above it is the identity and copies
//     nothing — key and projection ordinals, pushed and residual
//     predicates, the pre-split text of every rendering and note;
//   - at bind, once per execution: whether a symbolic access path binds
//     against this execution's host values (index scan + what the probe
//     does not subsume) or falls back (full scan + the whole pushed
//     filter) — accessPlan.bind, the only decision hosts make, shared by
//     render and build so the two cannot diverge.
//
// render turns the tree into the Nodes EXPLAIN shows without executing
// anything: no iterator, no table row, no clock, no context. build turns
// it into the one iterator pipeline engine.Drain materializes; handed
// the rendering, it instruments every pipeline edge into its Node, which
// is all EXPLAIN ANALYZE is.

// operator is one node of the physical plan tree.
type operator interface {
	// render returns the subtree as plan Nodes under one execution's
	// host bindings.
	render(hosts map[string]value.Value) *Node
	// build assembles the subtree's iterator. n is the subtree's
	// rendering when the execution is being analyzed, nil otherwise.
	build(b *builder, n *Node) (engine.Iterator, error)
	// note appends an annotation EXPLAIN prints under the operator.
	note(t text)
}

// notes are an operator's annotations, in print order.
type notes []text

func (ns *notes) note(t text) { *ns = append(*ns, t) }

// node renders one operator.
func (ns notes) node(hosts map[string]value.Value, op, detail string, children ...*Node) *Node {
	n := &Node{Op: op, Detail: detail, Children: children}
	for _, t := range ns {
		n.Notes = append(n.Notes, t.in(hosts))
	}
	return n
}

// accessOp reads one base table and applies the single-table conjuncts
// pushed down to it: the symbolic access path (nil = always a full
// scan), every pushed conjunct (the filter when the path does not bind)
// and the ones the path does not subsume (the filter when it does). It
// renders as the scan with, when a filter remains, a Filter above it.
type accessOp struct {
	notes
	tbl        *storage.Table
	cols       []string // the table's columns under its correlation name
	scan       string   // the full scan's rendering: "SUPPLIER as S"
	path       *accessPlan
	push, rest filter
}

// decide binds the access path for one execution and picks the filter
// that goes with the outcome.
func (o *accessOp) decide(hosts map[string]value.Value) (binding, *filter) {
	bd := o.path.bind(hosts)
	if bd.kind == unbound {
		return bd, &o.push
	}
	return bd, &o.rest
}

func (o *accessOp) render(hosts map[string]value.Value) *Node {
	bd, f := o.decide(hosts)
	op, detail := "Scan", o.scan
	if bd.kind != unbound {
		op, detail = "IndexScan", bd.detail()
	}
	if f.pred == nil {
		return o.node(hosts, op, detail)
	}
	return o.node(hosts, "Filter", f.text.in(hosts), &Node{Op: op, Detail: detail})
}

func (o *accessOp) build(b *builder, n *Node) (engine.Iterator, error) {
	bd, f := o.decide(b.env.Hosts)
	leaf := n
	if n != nil && f.pred != nil {
		leaf = n.Children[0]
	}
	if leaf != nil {
		leaf.RowsIn = int64(o.tbl.Len())
	}
	var it engine.Iterator
	switch bd.kind {
	case unbound:
		it = engine.NewTableIter(b.st, o.tbl, o.cols)
	case neverTrue:
		it = engine.NewRelationIter(b.st, engine.NewRelation(o.cols...))
	default:
		ords, err := bd.probe()
		if err != nil {
			return nil, err
		}
		it = engine.NewIndexScanIter(b.st, o.tbl, o.cols, ords)
	}
	it = b.add(it, leaf)
	if f.pred != nil {
		it = b.add(engine.NewFilterIter(b.st, it, f.prog, &b.env), n)
	}
	return it, nil
}

// joinOp joins two subtrees: a hash join on the probe columns at pi
// equal to the build columns at bi, or — with no key — the Cartesian
// product, which streams its left (probe) input and buffers the other.
// emit is its output layout: what is read above it (planSelect's
// liveness walk), with probe as the left input and inner as the right.
type joinOp struct {
	notes
	probe, inner operator
	emit         engine.Emit
	pi, bi       []int
	detail       string // "P.SNO = S.SNO"; "" for a product
}

func (o *joinOp) render(hosts map[string]value.Value) *Node {
	op := "HashJoin"
	if len(o.pi) == 0 {
		op = "Product"
	}
	return o.node(hosts, op, o.detail, o.probe.render(hosts), o.inner.render(hosts))
}

func (o *joinOp) build(b *builder, n *Node) (engine.Iterator, error) {
	probe, err := o.probe.build(b, n.child(0))
	if err != nil {
		return nil, err
	}
	inner, err := o.inner.build(b, n.child(1))
	if err != nil {
		return nil, err
	}
	var it engine.Iterator
	if len(o.pi) == 0 {
		it, err = engine.NewProductIter(b.st, probe, inner, o.emit)
	} else {
		it, err = engine.NewHashJoinIter(b.st, probe, inner, o.emit, o.pi, o.bi)
	}
	if err != nil {
		return nil, err
	}
	return b.add(it, n), nil
}

// keyPart binds one leading column of the index an index join probes: to
// the outer column at ord, or, when ord is negative, to the constant k.
type keyPart struct {
	ord int
	k   ast.Expr
}

// indexJoinOp joins its outer subtree to one base table by seeking one
// of the table's ordered indexes once per outer row, so the rows it
// reads are proportional to its outer input, not to the table. key
// binds a leading prefix of the index's columns and rest is what a
// fetched row must still satisfy (the table's pushed conjuncts the key
// does not subsume). The semi form is the existence probe: it stops at
// the first qualifying entry and emits the outer row alone, at most
// once. planSelect's rules A and B choose it, from the query shape and
// the schema only. A key constant that does not bind for an execution
// (an unbound host variable) turns the operator, for render and build
// alike, into fallback — the hash join it replaced, which emits the
// same layout; a semi key has no constants and no fallback. emit is the
// join form's output layout (outer left, the table right); the semi form
// passes the outer row through and has none.
type indexJoinOp struct {
	notes
	outer    operator
	tbl      *storage.Table
	ix       *storage.OrderedIndex
	inner    []string // the table's columns under its correlation name
	emit     engine.Emit
	key      []keyPart
	rest     filter
	semi     bool
	detail   text // "P via PARTS_SNO_PNO = (S.SNO, :PARTNO)"
	fallback *joinOp
}

// newIndexJoin assembles the index join of outer, emitting cols, to t
// through ix on key. The constant equalities the key takes in are
// subsumed by the probe; the rest of t's pushed conjuncts are checked on
// every fetched row.
func newIndexJoin(outer operator, cols []string, t *tableTerm, ix *storage.OrderedIndex, key []probeKey, semi bool) (*indexJoinOp, error) {
	o := &indexJoinOp{outer: outer, tbl: t.tbl, ix: ix, semi: semi,
		inner: engine.QualifiedCols(t.tbl, t.corr)}
	var subsumed []int
	shown := make([]string, len(key))
	for i, pk := range key {
		if pk.outer == "" {
			o.key = append(o.key, keyPart{ord: -1, k: pk.k.k})
			subsumed = append(subsumed, pk.k.at)
			shown[i] = pk.k.k.SQL()
			continue
		}
		ords, err := engine.ColIndexes(cols, []string{pk.outer})
		if err != nil {
			return nil, err
		}
		o.key = append(o.key, keyPart{ord: ords[0]})
		shown[i] = pk.outer
	}
	sort.Ints(subsumed)
	o.rest = newFilter(without(t.all, subsumed)).over(o.inner, nil)
	detail := fmt.Sprintf("%s via %s = (%s)", t.corr, ix.Name, strings.Join(shown, ", "))
	if semi {
		detail += ", first match"
	}
	if o.rest.pred != nil {
		detail += " where " + o.rest.pred.SQL()
	}
	o.detail = newText(detail)
	return o, nil
}

// decide binds the probe key's constants for one execution; ok is false
// when one of them cannot be evaluated. A NULL constant binds: the probe
// then matches nothing, as the comparison it stands for is never true.
func (o *indexJoinOp) decide(hosts map[string]value.Value) (key []engine.IndexKeyPart, ok bool) {
	env := eval.Env{Hosts: hosts}
	key = make([]engine.IndexKeyPart, len(o.key))
	for i, kp := range o.key {
		key[i].Ord = kp.ord
		if kp.ord >= 0 {
			continue
		}
		v, kind := bindConst(kp.k, &env)
		if kind == unbound {
			return nil, false
		}
		key[i].Const = v
	}
	return key, true
}

func (o *indexJoinOp) render(hosts map[string]value.Value) *Node {
	if _, ok := o.decide(hosts); !ok {
		return o.fallback.render(hosts)
	}
	return o.node(hosts, "IndexJoin", o.detail.in(hosts), o.outer.render(hosts))
}

func (o *indexJoinOp) build(b *builder, n *Node) (engine.Iterator, error) {
	key, ok := o.decide(b.env.Hosts)
	if !ok {
		return o.fallback.build(b, n)
	}
	outer, err := o.outer.build(b, n.child(0))
	if err != nil {
		return nil, err
	}
	it, err := engine.NewIndexJoinIter(b.st, outer,
		engine.IndexProbe{Tbl: o.tbl, Ix: o.ix, Cols: o.inner, Key: key, Pred: o.rest.prog},
		&b.env, o.semi, o.emit)
	if err != nil {
		return nil, err
	}
	return b.add(it, n), nil
}

// filterOp applies the predicate left over once pushdown and join keys
// have taken theirs: cross-table non-equalities, EXISTS, IN-subqueries.
// scope is set exactly when the predicate evaluates a subquery, which
// resolves its correlation references through it.
type filterOp struct {
	notes
	child operator
	f     filter
	scope *catalog.Scope
}

func (o *filterOp) render(hosts map[string]value.Value) *Node {
	return o.node(hosts, "Filter", o.f.text.in(hosts), o.child.render(hosts))
}

func (o *filterOp) build(b *builder, n *Node) (engine.Iterator, error) {
	child, err := o.child.build(b, n.child(0))
	if err != nil {
		return nil, err
	}
	env := &b.env
	if o.scope != nil {
		env = &eval.Env{Hosts: b.env.Hosts, Scope: o.scope, Exists: b.exists, In: b.in}
	}
	return b.add(engine.NewFilterIter(b.st, child, o.f.prog, env), n), nil
}

// projectOp projects its child onto the columns at idx.
type projectOp struct {
	notes
	child  operator
	cols   []string
	idx    []int
	detail string // cols, comma-separated
}

func (o *projectOp) render(hosts map[string]value.Value) *Node {
	return o.node(hosts, "Project", o.detail, o.child.render(hosts))
}

func (o *projectOp) build(b *builder, n *Node) (engine.Iterator, error) {
	child, err := o.child.build(b, n.child(0))
	if err != nil {
		return nil, err
	}
	it, err := engine.NewProjectIter(b.st, child, o.cols, o.idx)
	if err != nil {
		return nil, err
	}
	return b.add(it, n), nil
}

// distinctOp eliminates duplicates with a hash table, streaming: no
// consumer needs its input in order (the set operators sort their own
// operands), so nothing is gained by a sort. sort is the paper's
// baseline, set only under Options.SortDistinct.
type distinctOp struct {
	notes
	child operator
	sort  bool
}

func (o *distinctOp) render(hosts map[string]value.Value) *Node {
	op := "DistinctHash"
	if o.sort {
		op = "DistinctSort"
	}
	return o.node(hosts, op, "", o.child.render(hosts))
}

func (o *distinctOp) build(b *builder, n *Node) (engine.Iterator, error) {
	child, err := o.child.build(b, n.child(0))
	if err != nil {
		return nil, err
	}
	if o.sort {
		return b.add(engine.NewDistinctSortIter(b.st, child), n), nil
	}
	return b.add(engine.NewDistinctHashIter(b.st, child), n), nil
}

// setOp is INTERSECT / EXCEPT [ALL], executed the way the paper says
// typical optimizers do (§5.3): sort each operand and merge. The
// Theorem 3 / Corollary 2 rewrites exist to avoid these sorts.
type setOp struct {
	notes
	l, r        operator
	except, all bool
}

func (o *setOp) render(hosts map[string]value.Value) *Node {
	op := "IntersectSortMerge"
	if o.except {
		op = "ExceptSortMerge"
	}
	return o.node(hosts, op, fmt.Sprintf("all=%v", o.all), o.l.render(hosts), o.r.render(hosts))
}

func (o *setOp) build(b *builder, n *Node) (engine.Iterator, error) {
	l, err := o.l.build(b, n.child(0))
	if err != nil {
		return nil, err
	}
	r, err := o.r.build(b, n.child(1))
	if err != nil {
		return nil, err
	}
	return b.add(engine.NewSetOpIter(b.st, l, r, o.except, o.all), n), nil
}

// builder carries one execution through build: its bindings, where its
// work is counted, and every iterator assembled so far.
type builder struct {
	st *engine.Stats
	// env carries the execution's host bindings, and arms every
	// subquery-free predicate as it is: eval.Program.Arm reads nothing
	// else from it.
	env eval.Env
	// exists and in evaluate subqueries with the reference executor
	// (nested loops): the baseline strategy Kim and Pirahesh et al. set
	// out to avoid. Set only for a tree that has a subquery left.
	exists eval.ExistsFunc
	in     eval.InFunc
	built  []engine.Iterator
	// check enforces the iterator contract under the poison build tag
	// (engine.Checker); nil in every other build.
	check *engine.Checker
}

// add records an assembled iterator, first wrapping it in the contract
// checker under the poison build tag, and in the instrumentation of its
// plan Node when the execution is analyzed.
func (b *builder) add(it engine.Iterator, n *Node) engine.Iterator {
	if engine.Poisoned {
		it = b.check.Wrap(it)
	}
	if n != nil {
		it = &nodeIter{child: it, node: n}
	}
	b.built = append(b.built, it)
	return it
}

// closeAll releases a pipeline whose assembly failed part-way: every
// iterator built so far, parents before children (Close is idempotent
// and a parent closes its children).
func (b *builder) closeAll() {
	for i := len(b.built) - 1; i >= 0; i-- {
		b.built[i].Close()
	}
}

// nodeIter instruments one pipeline edge: every batch pulled through
// it is attributed to its plan Node (rows out, batch count, cumulative
// wall time of the subtree rooted here). finalize later converts
// cumulative times to the per-operator self times EXPLAIN ANALYZE
// reports.
type nodeIter struct {
	child engine.Iterator
	node  *Node
}

func (it *nodeIter) Cols() []string { return it.child.Cols() }

func (it *nodeIter) Next(ctx context.Context) (engine.Batch, error) {
	t0 := time.Now()
	b, err := it.child.Next(ctx)
	it.node.TimeNanos += time.Since(t0).Nanoseconds()
	if b != nil {
		it.node.RowsOut += int64(len(b))
		it.node.Batches++
	}
	return b, err
}

func (it *nodeIter) Close() error { return it.child.Close() }

// finalize finishes a drained plan tree's metrics: marks every node
// analyzed, derives RowsIn from the children's emitted rows (leaves keep
// the table cardinality preset at build time), and converts cumulative
// subtree times into per-operator self times. Returns the node's
// cumulative time.
func finalize(n *Node) int64 {
	var childCum, childRows int64
	for _, c := range n.Children {
		childCum += finalize(c)
		childRows += c.RowsOut
	}
	n.Analyzed = true
	if len(n.Children) > 0 {
		n.RowsIn = childRows
	}
	cum := n.TimeNanos
	n.TimeNanos = max(cum-childCum, 0)
	return cum
}
