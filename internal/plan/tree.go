package plan

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

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
//     nothing — key and projection ordinals, checked against their
//     inputs, each join's output column names, whether a projection is
//     the identity, pushed and residual predicates, the pre-split text
//     of every rendering and note;
//   - at bind, once per execution: every constant's value in the binding
//     vector, and whether a NULL among an access path's makes it match
//     nothing — accessPlan.bind, the only decision the vector makes,
//     shared by render and build so the two cannot diverge.
//
// render turns the tree into the Nodes EXPLAIN shows without executing
// anything: no iterator, no table row, no clock, no context. build turns
// it into the one iterator pipeline engine.Drain materializes, carving
// every iterator from the execution's Frame; handed the rendering, it
// instruments every pipeline edge into its Node, which is all EXPLAIN
// ANALYZE is.

// operator is one node of the physical plan tree.
type operator interface {
	// render returns the subtree as plan Nodes under one execution's
	// binding vector.
	render(vals []value.Value) *Node
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
func (ns notes) node(vals []value.Value, op, detail string, children ...*Node) *Node {
	n := &Node{Op: op, Detail: detail, Children: children}
	for _, t := range ns {
		n.Notes = append(n.Notes, t.in(vals))
	}
	return n
}

// accessOp reads one base table and applies the single-table conjuncts
// pushed down to it: the symbolic access path (nil = always a full
// scan) and rest, the conjuncts the path does not subsume (all of them
// without a path). It renders as the scan with, when a filter remains,
// a Filter above it.
type accessOp struct {
	notes
	tbl  *storage.Table
	cols []string        // the table's columns under its correlation name
	none engine.Relation // what a never-true binding reads: no row of cols
	scan string          // the full scan's rendering: "SUPPLIER as S"
	path *accessPlan
	rest filter
}

func (o *accessOp) render(vals []value.Value) *Node {
	op, detail := "Scan", o.scan
	if kind := o.path.bind(vals); kind != scan {
		op, detail = "IndexScan", o.path.detail(vals, kind)
	}
	if o.rest.pred == nil {
		return o.node(vals, op, detail)
	}
	return o.node(vals, "Filter", o.rest.text.in(vals), &Node{Op: op, Detail: detail})
}

func (o *accessOp) build(b *builder, n *Node) (engine.Iterator, error) {
	kind := o.path.bind(b.vals)
	leaf := n
	if n != nil && o.rest.pred != nil {
		leaf = n.Children[0]
	}
	if leaf != nil {
		leaf.RowsIn = int64(o.tbl.Len())
	}
	var it engine.Iterator
	switch kind {
	case scan:
		it = engine.NewTableIter(b.sc, b.st, o.tbl, o.cols)
	case neverTrue:
		it = engine.NewRelationIter(b.sc, b.st, &o.none)
	default:
		ords, err := o.path.probe(kind, b.vals, b.sc)
		if err != nil {
			return nil, err
		}
		it = engine.NewIndexScanIter(b.sc, b.st, o.tbl, o.cols, ords)
	}
	it = b.add(it, leaf)
	if o.rest.pred != nil {
		it = b.add(engine.NewFilterIter(b.sc, b.st, it, o.rest.prog.Arm(b.vals, nil, b.sc)), n)
	}
	return it, nil
}

// joinOp joins two subtrees: a hash join on the probe columns at Pi
// equal to the build columns at Bi, or — with no key — the Cartesian
// product, which streams its left (probe) input and buffers the other.
// Its Emit is its output layout: what is read above it (planSelect's
// liveness walk), with probe as the left input and inner as the right.
type joinOp struct {
	notes
	probe, inner operator
	join         engine.Join // resolved against the inputs' layouts
	detail       string      // "P.SNO = S.SNO"; "" for a product
}

func (o *joinOp) render(vals []value.Value) *Node {
	op := "HashJoin"
	if len(o.join.Pi) == 0 {
		op = "Product"
	}
	return o.node(vals, op, o.detail, o.probe.render(vals), o.inner.render(vals))
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
	if len(o.join.Pi) == 0 {
		return b.add(engine.NewProductIter(b.sc, b.st, probe, inner, &o.join), n), nil
	}
	return b.add(engine.NewHashJoinIter(b.sc, b.st, probe, inner, &o.join), n), nil
}

// indexJoinOp joins its outer subtree to one base table by seeking one
// of the table's ordered indexes once per outer row, so the rows it
// reads are proportional to its outer input, not to the table. key
// binds a leading prefix of the index's columns and rest is what a
// fetched row must still satisfy (the table's pushed conjuncts the key
// does not subsume). The semi form is the existence probe: it stops at
// the first qualifying entry and emits the outer row alone, at most
// once. planSelect's rules A and B choose it, from the query shape and
// the schema only. A NULL key constant matches nothing. probe is the
// engine's view of it — the table, the index, the key's outer ordinals,
// the semi flag and the join form's output layout (outer left, the table
// right; the semi form passes the outer row through and has none) —
// resolved against the outer layout once all of it is set. consts are
// the key's constants, at the positions whose outer ordinal in
// probe.Key is negative (nil elsewhere).
type indexJoinOp struct {
	notes
	outer  operator
	probe  engine.IndexProbe
	consts []*constant
	rest   filter
	detail text // "P via PARTS_SNO_PNO = (S.SNO, :PARTNO)"
}

// newIndexJoin assembles the index join of outer, emitting cols, to t
// through ix on key, in a block whose slots vars names. The constant
// equalities the key takes in are subsumed by the probe; the rest of t's
// pushed conjuncts are checked on every fetched row.
func newIndexJoin(outer operator, cols []string, t *tableTerm, ix *storage.OrderedIndex, key []probeKey, semi bool, vars *eval.Vars) (*indexJoinOp, error) {
	o := &indexJoinOp{outer: outer, probe: engine.IndexProbe{Tbl: t.tbl, Ix: ix, Semi: semi,
		Cols: engine.QualifiedCols(t.tbl, t.corr)}}
	var subsumed []int
	shown := make([]string, len(key))
	for i, pk := range key {
		if pk.outer == "" {
			o.probe.Key = append(o.probe.Key, -1)
			o.consts = append(o.consts, newConstant(pk.k.k, vars.Hosts))
			subsumed = append(subsumed, pk.k.at)
			shown[i] = pk.k.k.SQL()
			continue
		}
		ords, err := engine.ColIndexes(cols, []string{pk.outer})
		if err != nil {
			return nil, err
		}
		o.probe.Key = append(o.probe.Key, ords[0])
		o.consts = append(o.consts, nil)
		shown[i] = pk.outer
	}
	sort.Ints(subsumed)
	o.rest = newFilter(without(t.all, subsumed)).over(o.probe.Cols, vars)
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

func (o *indexJoinOp) render(vals []value.Value) *Node {
	return o.node(vals, "IndexJoin", o.detail.in(vals), o.outer.render(vals))
}

func (o *indexJoinOp) build(b *builder, n *Node) (engine.Iterator, error) {
	outer, err := o.outer.build(b, n.child(0))
	if err != nil {
		return nil, err
	}
	key := b.sc.Cells(len(o.consts))
	for i, k := range o.consts {
		if k != nil {
			key[i] = *k.in(b.vals)
		}
	}
	keep := o.rest.prog.Arm(b.vals, nil, b.sc)
	return b.add(engine.NewIndexJoinIter(b.sc, b.st, outer, &o.probe, key, keep), n), nil
}

// filterOp applies the predicate left over once pushdown and join keys
// have taken theirs: cross-table non-equalities, EXISTS, IN-subqueries.
// subs holds the plan of each subquery the predicate evaluates, planned
// once as a block of its own; the filter runs it for every row it tests.
type filterOp struct {
	notes
	child operator
	f     filter
	subs  map[*ast.Select]subBlock
}

// subBlock is a subquery's plan and the names of its slots.
type subBlock struct {
	op    operator
	vars  *eval.Vars // Outer: the filter's row, then the filter's own outer columns
	outer int        // the first of the filter's own outer slots
}

func (o *filterOp) render(vals []value.Value) *Node {
	return o.node(vals, "Filter", o.f.text.in(vals), o.child.render(vals))
}

func (o *filterOp) build(b *builder, n *Node) (engine.Iterator, error) {
	child, err := o.child.build(b, n.child(0))
	if err != nil {
		return nil, err
	}
	var sub eval.Subquery
	if len(o.subs) > 0 {
		sub = (&subRuns{subs: o.subs, st: b.st, vals: b.vals, ctx: b.ctx, sc: b.sc.Sub()}).run
	}
	return b.add(engine.NewFilterIter(b.sc, b.st, child, o.f.prog.Arm(b.vals, sub, b.sc)), n), nil
}

// subRuns runs a filter's subqueries on the execution's subquery scratch
// (engine.Scratch.Sub), reset after every run: a run answers values
// copied out, so nothing reads its rows after the reset.
type subRuns struct {
	subs map[*ast.Select]subBlock
	st   *engine.Stats
	ctx  context.Context // the execution's
	sc   *engine.Scratch // what a run allocates from
	vals []value.Value   // the execution's binding vector
	out  []value.Value   // the last run's answer
	b    builder         // the last run's
}

// run binds sub's outer slots to the filter's row and the filter's own
// outer slots, builds its block, pulls its first batch (EXISTS) or every
// row (IN), copying out the first column, and closes it, releasing every
// governor charge it took. A name the row repeats is one column a join
// emits twice, so each of its slots holds the same cell.
func (r *subRuns) run(sub *ast.Select, row value.Row, exists bool) ([]value.Value, error) {
	r.st.Add(engine.Stats{SubqueryRuns: 1})
	blk := r.subs[sub]
	at := r.vals[blk.vars.Base : blk.vars.Base+len(blk.vars.Outer)]
	copy(at[copy(at, row):], r.vals[blk.outer:])
	b := &r.b
	b.start(r.ctx, r.sc, r.st, r.vals, nil)
	defer func() {
		b.closeAll()
		if engine.Poisoned {
			b.check.Verify(nil)
		}
		r.sc.Reset()
	}()
	it, err := blk.op.build(b, nil)
	if err == nil && !exists && len(it.Cols()) != 1 {
		err = fmt.Errorf("plan: IN subquery must produce one column, got %d", len(it.Cols()))
	}
	for r.out = r.out[:0]; err == nil && !(exists && len(r.out) > 0); {
		var batch engine.Batch
		if batch, err = it.Next(r.ctx); batch == nil {
			break
		}
		for _, inner := range batch {
			r.out = append(r.out, inner[0])
		}
	}
	return r.out, err
}

// projectOp projects its child by proj: onto the child's columns at
// proj.Idx, named proj.Cols.
type projectOp struct {
	notes
	child  operator
	proj   engine.Projection // resolved against the child's layout
	detail string            // proj.Cols, comma-separated
}

func (o *projectOp) render(vals []value.Value) *Node {
	return o.node(vals, "Project", o.detail, o.child.render(vals))
}

func (o *projectOp) build(b *builder, n *Node) (engine.Iterator, error) {
	child, err := o.child.build(b, n.child(0))
	if err != nil {
		return nil, err
	}
	return b.add(engine.NewProjectIter(b.sc, b.st, child, &o.proj), n), nil
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

func (o *distinctOp) render(vals []value.Value) *Node {
	op := "DistinctHash"
	if o.sort {
		op = "DistinctSort"
	}
	return o.node(vals, op, "", o.child.render(vals))
}

func (o *distinctOp) build(b *builder, n *Node) (engine.Iterator, error) {
	child, err := o.child.build(b, n.child(0))
	if err != nil {
		return nil, err
	}
	if o.sort {
		return b.add(engine.NewDistinctSortIter(b.sc, b.st, child), n), nil
	}
	return b.add(engine.NewDistinctHashIter(b.sc, b.st, child), n), nil
}

// setOp is INTERSECT / EXCEPT [ALL], executed the way the paper says
// typical optimizers do (§5.3): sort each operand and merge. The
// Theorem 3 / Corollary 2 rewrites exist to avoid these sorts.
type setOp struct {
	notes
	l, r        operator
	except, all bool
}

func (o *setOp) render(vals []value.Value) *Node {
	op := "IntersectSortMerge"
	if o.except {
		op = "ExceptSortMerge"
	}
	return o.node(vals, op, fmt.Sprintf("all=%v", o.all), o.l.render(vals), o.r.render(vals))
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
	return b.add(engine.NewSetOpIter(b.sc, b.st, l, r, o.except, o.all), n), nil
}

// builder carries one execution through build: its binding vector,
// the scratch its iterators are carved from, where its work is counted,
// and every iterator assembled so far.
type builder struct {
	ctx context.Context // what the pipeline is drained under
	sc  *engine.Scratch
	st  *engine.Stats
	// vals is the binding vector every constant is armed from; a
	// subquery's run binds its outer columns in it first.
	vals  []value.Value
	built []engine.Iterator
	own   [16]engine.Iterator // built's storage, for all but the largest pipelines
	// check enforces the iterator contract under the poison build tag
	// (engine.Checker); nil in every other build.
	check *engine.Checker
}

// start readies b for one execution's build, forgetting the last. gov
// is the governor the execution created for itself, whose balance the
// contract checker verifies under the poison build tag.
func (b *builder) start(ctx context.Context, sc *engine.Scratch, st *engine.Stats, vals []value.Value, gov *engine.Governor) {
	*b = builder{ctx: ctx, sc: sc, st: st, vals: vals}
	b.built = b.own[:0]
	if engine.Poisoned {
		b.check = engine.NewChecker(gov)
	}
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
