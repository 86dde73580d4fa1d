// Package plan turns analyzed queries into physical execution
// strategies over the engine package, and is the harness on which the
// paper's relational experiments run.
//
// Two planner configurations matter for the experiments:
//
//   - the baseline planner executes the query as written: DISTINCT is
//     honored with duplicate elimination, each EXISTS or IN subquery is
//     planned as a block of its own and run once per outer row, and set
//     operations sort both operands;
//   - the uniqueness-aware planner first applies the core package's
//     rewrites (Theorem 1 DISTINCT elimination, Theorem 2 / Corollary 1
//     subquery merging, Theorem 3 / Corollary 2 set-operation
//     conversion) to fixpoint and then plans the rewritten query.
//
// Both configurations share the same physical operators (hash joins
// for equality predicates, predicate pushdown), so measured deltas are
// attributable to the semantic rewrites rather than to different
// execution machinery: Compile produces one immutable physical plan
// tree (tree.go), a surviving subquery's block among its nodes, and one
// batch-iterator executor runs it. The tests hold every plan to
// internal/oracle, which shares no code with this package or the
// engine.
package plan

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"

	"uniqopt/internal/catalog"
	"uniqopt/internal/core"
	"uniqopt/internal/engine"
	"uniqopt/internal/eval"
	"uniqopt/internal/sql/ast"
	"uniqopt/internal/storage"
	"uniqopt/internal/value"
)

// Options configure a planner.
type Options struct {
	// ApplyRewrites enables the uniqueness-aware rewrite pass.
	ApplyRewrites bool
	// SortDistinct eliminates duplicates the way the paper says a
	// DISTINCT costs (§5.1): sort the whole result and collapse runs,
	// instead of the streaming hash table every other plan uses. It is
	// experiment E1's baseline and nothing else; the database never sets
	// it.
	SortDistinct bool
	// Analyzer options forwarded to the core analyzer.
	Core core.Options
	// MaxRows bounds the rows a query may hold live at once — blocking
	// state (hash tables, sort buffers), in-flight batches and the
	// result (0 = unlimited); exceeding it fails the query with an
	// error matching engine.ErrBudgetExceeded.
	MaxRows int64
	// MemBudget bounds the estimated bytes of the same live footprint
	// (0 = unlimited).
	MemBudget int64
}

// Frame is one execution's memory: the engine.Scratch its pipeline —
// iterators, batches, rows, hash tables, governor, drained Relation — is
// carved from, and the Result and builder the planner fills. One Frame
// serves execution after execution; what an execution returned is valid
// until the Frame's Scratch is Reset, which only the caller that owns
// the answer may call, once it has consumed it.
type Frame struct {
	engine.Scratch
	res Result
	b   builder
}

// NewFrame returns an empty frame.
func NewFrame() *Frame { return &Frame{} }

// Result is the outcome of planning and executing one query.
type Result struct {
	Rel      *engine.Relation
	Stats    engine.Stats
	Rewrites []core.Applied
	// Root is the plan tree with the per-operator metrics of this
	// execution (rows, batches, wall time) when it was
	// analyzed; a plain execution renders nothing and leaves it nil.
	Root *Node
}

// Planner plans and executes queries against a stored database.
type Planner struct {
	DB   *storage.DB
	An   *core.Analyzer
	Opts Options
}

// NewPlanner builds a planner over db.
func NewPlanner(db *storage.DB, opts Options) *Planner {
	return &Planner{
		DB:   db,
		An:   &core.Analyzer{Cat: db.Catalog(), Opts: opts.Core},
		Opts: opts,
	}
}

// Run plans and executes q — Compile, Bind, then Execute — its host
// variables looked up by name through hosts (nil when q names none).
func (p *Planner) Run(q ast.Query, hosts func(name string) (value.Value, bool)) (*Result, error) {
	c, err := p.Compile(q)
	if err != nil {
		return nil, err
	}
	vals, err := c.Bind(hosts)
	if err != nil {
		return nil, err
	}
	return p.Execute(context.Background(), NewFrame(), c, vals, false)
}

// Execute runs a compiled statement under ctx with this execution's
// binding vector, of c.Width slots: it builds the plan tree's iterator
// pipeline and drains it. With analyze set — EXPLAIN ANALYZE — the
// pipeline is instrumented and Result.Root is the rendered tree carrying
// what each operator did; a plain execution allocates no Node, renders
// no string and reads no clock.
// Cancellation and deadlines are honored cooperatively inside every
// engine operator; Options.MaxRows / Options.MemBudget bound the query's
// live footprint, through the frame's governor; and any panic below this
// boundary is contained into an *engine.InternalError.
// The pipeline, the Result and Result.Rel are carved from f and live
// there until the caller resets f's Scratch; a fresh frame that nothing
// resets leaves the result the caller's for good. On error the result is
// nil — partial rows are never exposed. c is only read; subquery runs
// fill vals' outer slots.
func (p *Planner) Execute(ctx context.Context, f *Frame, c *Compiled, vals []value.Value, analyze bool) (res *Result, err error) {
	defer func() {
		if err != nil {
			res, err = nil, unlift(err, vals)
		}
	}()
	defer engine.Contain("plan.Run", &err)
	gov := f.Budget(p.Opts.MaxRows, p.Opts.MemBudget)
	res, b := &f.res, &f.b
	if engine.Poisoned { // nothing of a frame is handed out twice
		res, b = new(Result), new(builder)
	}
	*res = Result{Rewrites: c.Rewrites(vals)}
	b.start(ctx, &f.Scratch, &res.Stats, vals, gov)
	if engine.Poisoned {
		defer func() {
			var rel *engine.Relation // a failed execution leaves nothing charged
			if res != nil {
				rel = res.Rel
			}
			b.check.Verify(rel)
		}()
	}
	if analyze {
		res.Root = c.Render(vals)
	}
	it, err := c.root.build(b, res.Root)
	if err != nil {
		b.closeAll()
		return nil, err
	}
	// Drain closes the pipeline, on success and on error.
	if res.Rel, err = engine.Drain(ctx, &f.Scratch, &res.Stats, it); err != nil {
		return nil, err
	}
	if analyze {
		finalize(res.Root)
	}
	res.Stats.RowsOutput = int64(res.Rel.Len())
	return res, nil
}

// maxRewritePasses bounds the rewrite fixpoint loop.
const maxRewritePasses = 8

// rewriteFixpoint applies the core rewrites until none fires or the
// pass bound is reached. DISTINCT elimination is attempted after every
// structural rewrite because merges can expose new key bindings.
func (p *Planner) rewriteFixpoint(q ast.Query) (aps []core.Applied, out ast.Query, err error) {
	for pass := 0; pass < maxRewritePasses; pass++ {
		switch x := q.(type) {
		case *ast.SetOp:
			ap, err := p.An.SetOpToExists(x)
			if err != nil {
				return nil, nil, err
			}
			if ap == nil {
				return aps, q, nil
			}
			aps = append(aps, *ap)
			q = ap.Query
		case *ast.Select:
			ap, err := p.An.InToExists(x)
			if err != nil {
				return nil, nil, err
			}
			if ap == nil {
				ap, err = p.An.SubqueryToJoin(x)
				if err != nil {
					return nil, nil, err
				}
			}
			if ap == nil {
				ap, err = p.An.EliminateJoin(x)
				if err != nil {
					return nil, nil, err
				}
			}
			if ap == nil {
				ap, err = p.An.EliminateDistinct(x)
				if err != nil {
					return nil, nil, err
				}
			}
			if ap == nil {
				return aps, q, nil
			}
			aps = append(aps, *ap)
			q = ap.Query
		default:
			return aps, q, nil
		}
	}
	return aps, q, nil
}

// buildPrefixNote is attached to a hash-join node whose roles were
// flipped because the accumulated prefix is bounded to at most one row.
const buildPrefixNote = "builds the bounded join prefix (≤1 row) as the hash side"

// planSelect makes every planning decision for one query specification
// — per-table pushdown, access paths, the left-deep join order with its
// keys, the columns each join emits, the residual predicate, projection,
// duplicate elimination — and returns them as a plan subtree with the
// columns it emits; outer is the enclosing block's scope for a
// subquery, whose outer columns are constants per outer row; vars and
// width lay out the binding vector. It executes nothing and reads no
// host-variable binding: the tree depends only on the query shape and
// the schema, which is what makes it cacheable.
func (p *Planner) planSelect(s *ast.Select, outer *catalog.Scope, vars *eval.Vars, width *int) (operator, []string, error) {
	scope, err := catalog.NewScope(p.DB.Catalog(), s.From, outer)
	if err != nil {
		return nil, nil, err
	}
	// Qualify and split the predicate.
	var conjuncts []ast.Expr
	for _, c := range ast.Conjuncts(s.Where) {
		q, err := p.An.QualifyExpr(c, scope)
		if err != nil {
			return nil, nil, err
		}
		conjuncts = append(conjuncts, q)
	}
	terms := make([]*tableTerm, 0, len(s.From))
	for _, tr := range s.From {
		corr := strings.ToUpper(tr.Name())
		tbl, ok := p.DB.Table(tr.Table)
		if !ok {
			return nil, nil, fmt.Errorf("plan: unknown table %s", tr.Table)
		}
		terms = append(terms, &tableTerm{ref: tr, corr: corr, tbl: tbl})
	}
	used := make([]bool, len(conjuncts))
	for i, c := range conjuncts {
		if ast.HasExists(c) {
			continue
		}
		qs := qualifiersOf(c)
		if len(qs) != 1 {
			continue
		}
		for _, t := range terms {
			if qs[t.corr] {
				t.push = append(t.push, c)
				used[i] = true
				break
			}
		}
	}
	// Sink key-derived constant equalities below the joins, give each
	// table the ordered-index access path its bounds allow, then pick the
	// join order from the resulting per-table bounds.
	deriveConstEqualities(conjuncts, terms)
	for _, t := range terms {
		t.all = append(append([]ast.Expr{}, t.push...), t.derived...)
		t.path = p.chooseAccessPath(t.tbl, t.corr, t.all, vars.Hosts)
	}
	refs, err := scope.ExpandItems(s.Items)
	if err != nil {
		return nil, nil, err
	}
	// Rule B: the existence-only tables leave the join order and probe
	// last, and Algorithm 1 says whether the block still needs its
	// DISTINCT once they no longer multiply rows.
	joined, probes := terms, []existenceProbe(nil)
	distinct, probeNote := s.Quant.IsDistinct(), "DISTINCT still removes the other duplicates"
	if distinct && outer == nil { // rule B resolves only this block's own columns
		joined, probes = existenceOnly(terms, conjuncts, refs)
	}
	if len(probes) > 0 && p.Opts.ApplyRewrites {
		ap, err := p.An.EliminateDistinct(withoutProbes(s, joined, probes, conjuncts, refs))
		if err != nil {
			return nil, nil, err
		}
		if ap != nil {
			distinct, probeNote = false, "without it "+ap.Description
		}
	}
	order, startNote, startTiny := chooseJoinOrder(joined, conjuncts, used)
	orderNote := ""
	if len(terms) > 1 {
		chosen := make([]string, 0, len(terms))
		written := make([]string, len(terms))
		for _, st := range order {
			chosen = append(chosen, joined[st.idx].corr)
		}
		for _, pr := range probes {
			chosen = append(chosen, pr.t.corr)
		}
		for i, t := range terms {
			written[i] = t.corr
		}
		if strings.Join(chosen, ",") == strings.Join(written, ",") {
			orderNote = fmt.Sprintf("join order: %s (as written)", strings.Join(chosen, ", "))
		} else {
			orderNote = fmt.Sprintf("join order: %s (written: %s)",
				strings.Join(chosen, ", "), strings.Join(written, ", "))
		}
	}
	tables := make([]*accessOp, len(order))
	for i, st := range order {
		t := joined[st.idx]
		residual := t.all
		if t.path != nil {
			residual = without(t.all, t.path.consumed)
		}
		cols := engine.QualifiedCols(t.tbl, t.corr)
		tables[i] = &accessOp{tbl: t.tbl, cols: cols, none: engine.Relation{Cols: cols},
			scan: t.tbl.Schema.Name + " as " + t.corr, path: t.path,
			rest: newFilter(residual).over(cols, vars)}
	}

	// Left-deep join tree, decided by name before any ordinal exists:
	// bind each further table with whatever equality conjuncts connect it
	// to the tables already joined.
	// prefixTiny tracks whether the accumulated prefix is still bounded
	// to at most one row (a key-bound start followed by unique probes);
	// while it is, each hash join builds the prefix, not the new table:
	// the incoming table streams through as the probe, so a large
	// unfiltered table is never materialized into a hash table just
	// because it joins a tiny prefix. prefixBounded is the weaker bound
	// rule A goes by: the prefix is as large as an index probe made it —
	// its start table reads through a point or range access path and
	// every later step was a unique probe or an index join — so seeking
	// once per prefix row touches O(prefix) rows where a hash join would
	// read the whole new table.
	steps := make([]joinStep, len(tables))
	bound := map[string]bool{joined[order[0].idx].corr: true}
	prefixTiny := startTiny
	prefixBounded := tables[0].path != nil
	for k := 1; k < len(tables); k++ {
		st := &steps[k]
		term := joined[order[k].idx]
		for i, c := range conjuncts {
			if used[i] {
				continue
			}
			lref, rref, ok := columnEquality(c)
			if !ok {
				continue
			}
			switch {
			case bound[lref.Qualifier] && rref.Qualifier == term.corr:
			case bound[rref.Qualifier] && lref.Qualifier == term.corr:
				lref, rref = rref, lref
			default:
				continue
			}
			st.lk = append(st.lk, lref.Qualifier+"."+lref.Column)
			st.rk = append(st.rk, rref.Qualifier+"."+rref.Column)
			used[i] = true
		}
		// Rule A: probe the new table's index instead of reading it.
		if prefixBounded && tables[k].path == nil && len(st.lk) > 0 {
			st.ix, st.key = indexProbe(term, st.lk, st.rk)
		}
		// The prefix probes the new table's hash table, unless the roles
		// flip.
		st.flip = prefixTiny && len(st.lk) > 0 && st.ix == nil
		prefixTiny = prefixTiny && order[k].unique
		prefixBounded = prefixBounded && (order[k].unique || st.ix != nil)
		bound[term.corr] = true
	}
	for _, pr := range probes {
		for _, i := range pr.eqs {
			used[i] = true
		}
	}
	var residual []ast.Expr
	for i, c := range conjuncts {
		if !used[i] {
			residual = append(residual, c)
		}
	}
	rf := newFilter(residual)
	po := &projectOp{proj: engine.Projection{Cols: make([]string, len(refs))}}
	for i, r := range refs {
		po.proj.Cols[i] = r.Qualifier + "." + r.Column
	}
	po.detail = strings.Join(po.proj.Cols, ", ")

	// Liveness, top-down: a join emits the columns something above it
	// reads and no others. Above the last join that is the projection,
	// the residual predicate and the existence probes' keys; above an
	// earlier one, what the next join emits of the prefix plus its own
	// keys into it. The last join emits the projection's layout first —
	// in its order, repeats included — so that with nothing else to carry
	// the projection above it is the identity. A subquery's correlation
	// references are among the residual predicate's columns.
	live, extras := map[string]bool{}, map[string]bool{} // extras: read above the last join, not projected
	for _, c := range po.proj.Cols {
		live[c] = true
	}
	carry := func(c string) {
		if !live[c] {
			live[c], extras[c] = true, true
		}
	}
	for _, ref := range ast.ColumnRefs(rf.pred) {
		carry(ref.Qualifier + "." + ref.Column)
	}
	for _, pr := range probes {
		for _, pk := range pr.key {
			carry(pk.outer)
		}
	}
	for k := len(tables) - 1; k >= 1; k-- {
		steps[k].live = live
		below := map[string]bool{}
		for _, c := range steps[k].lk {
			below[c] = true
		}
		mine := joined[order[k].idx].corr + "."
		for c := range live {
			if !strings.HasPrefix(c, mine) {
				below[c] = true
			}
		}
		live = below
	}

	// Assembly, bottom-up: every ordinal resolves against the layout the
	// step below was just given.
	var cur operator = tables[0]
	cols := tables[0].cols
	for k := 1; k < len(tables); k++ {
		st, t, term := &steps[k], tables[k], joined[order[k].idx]
		out := append(append([]string{}, cols...), t.cols...)
		switch {
		case k == len(tables)-1:
			out = append(append([]string{}, po.proj.Cols...), keep(out, extras)...)
		default:
			out = keep(out, st.live)
		}
		if st.ix != nil {
			ij, err := newIndexJoin(cur, cols, term, st.ix, st.key, false, vars)
			if err != nil {
				return nil, nil, err
			}
			if ij.probe.Emit, err = emitOf(out, cols, t.cols); err != nil {
				return nil, nil, err
			}
			if err := ij.probe.Resolve(cols); err != nil {
				return nil, nil, err
			}
			cur = ij
		} else {
			// The join's inputs are (probe, inner): the prefix and the new
			// table, or the other way round; the layout is the same columns
			// either way, found on whichever side has them.
			j := &joinOp{probe: cur, inner: t}
			pcols, icols, pk, ik := cols, t.cols, st.lk, st.rk
			if st.flip {
				j.probe, j.inner = t, cur
				pcols, icols, pk, ik = t.cols, cols, st.rk, st.lk
				j.note(newText(buildPrefixNote))
			}
			if j.join.Emit, err = emitOf(out, pcols, icols); err != nil {
				return nil, nil, err
			}
			if len(st.lk) > 0 {
				j.detail = strings.Join(pk, ",") + " = " + strings.Join(ik, ",")
				if j.join.Pi, err = engine.ColIndexes(pcols, pk); err != nil {
					return nil, nil, err
				}
				if j.join.Bi, err = engine.ColIndexes(icols, ik); err != nil {
					return nil, nil, err
				}
			}
			if err := j.join.Resolve(pcols, icols); err != nil {
				return nil, nil, err
			}
			cur = j
		}
		if order[k].bound != "" {
			cur.note(newText(order[k].bound))
		}
		cols = out
	}
	for _, pr := range probes {
		ij, err := newIndexJoin(cur, cols, pr.t, pr.ix, pr.key, true, vars)
		if err != nil {
			return nil, nil, err
		}
		if err := ij.probe.Resolve(cols); err != nil {
			return nil, nil, err
		}
		ij.note(newText(fmt.Sprintf("existence-only %s: first match; %s", pr.t.corr, probeNote)))
		cur = ij
	}

	// Residual predicates (cross-table non-equalities, EXISTS, ...). Each
	// subquery is planned once, as a block of its own in this one's scope,
	// whose outer columns are what the filter binds: the row, then this
	// block's own.
	if rf.pred != nil {
		fo := &filterOp{child: cur, f: rf.over(cols, vars), subs: map[*ast.Select]subBlock{}}
		for _, sub := range ast.Subqueries(rf.pred) {
			blk := subBlock{vars: &eval.Vars{Hosts: vars.Hosts, Outer: append(slices.Clip(cols), vars.Outer...), Base: *width}}
			*width += len(blk.vars.Outer)
			if blk.op, _, err = p.planSelect(sub, scope, blk.vars, width); err != nil {
				return nil, nil, err
			}
			fo.subs[sub] = blk
		}
		cur = fo
	}

	// Projection and duplicate elimination.
	po.child = cur
	if len(tables) > 1 {
		po.proj.Idx = make([]int, len(po.proj.Cols))
		for i := range po.proj.Idx {
			po.proj.Idx[i] = i
		}
	} else if po.proj.Idx, err = engine.ColIndexes(cols, po.proj.Cols); err != nil {
		return nil, nil, err
	}
	if err := po.proj.Resolve(cols); err != nil {
		return nil, nil, err
	}
	cur = po
	if distinct {
		cur = &distinctOp{child: cur, sort: p.Opts.SortDistinct}
	}
	// The chosen join order and the start-table justification go on the
	// block's root, where EXPLAIN renders them above the per-join bound
	// notes.
	if orderNote != "" {
		cur.note(newText(orderNote))
		if startNote != "" {
			cur.note(newText(startNote))
		}
	}
	return cur, po.proj.Cols, nil
}

// joinStep is what planSelect decides about one step of the left-deep
// join order before any column has an ordinal: the equality keys by
// name, rule A's index probe, whether the hash join's roles flip, and
// the columns read above the step.
type joinStep struct {
	lk, rk []string              // the prefix's key columns, the new table's
	ix     *storage.OrderedIndex // rule A's probe; nil = hash join or product
	key    []probeKey
	flip   bool            // the new table probes a hash table of the prefix
	live   map[string]bool // what is read above the join
}

// keep returns the columns of cols that are in set, in cols' order.
func keep(cols []string, set map[string]bool) []string {
	var out []string
	for _, c := range cols {
		if set[c] {
			out = append(out, c)
		}
	}
	return out
}

// emitOf resolves the layout out, by name, over a join whose left input
// emits left and whose right input emits right.
func emitOf(out, left, right []string) (engine.Emit, error) {
	emit := make(engine.Emit, len(out))
	for i, name := range out {
		if c := slices.Index(left, name); c >= 0 {
			emit[i] = engine.EmitCol{Ord: c}
		} else if c := slices.Index(right, name); c >= 0 {
			emit[i] = engine.EmitCol{Right: true, Ord: c}
		} else {
			return nil, fmt.Errorf("plan: no join input emits %s (left: %v, right: %v)", name, left, right)
		}
	}
	return emit, nil
}

// without returns conj less the conjuncts at the ascending positions
// drop.
func without(conj []ast.Expr, drop []int) []ast.Expr {
	if len(drop) == 0 {
		return conj
	}
	var out []ast.Expr
	for i, c := range conj {
		if len(drop) > 0 && drop[0] == i {
			drop = drop[1:]
			continue
		}
		out = append(out, c)
	}
	return out
}

// qualifiersOf collects the qualifier names referenced by a fully
// qualified expression, descending into EXISTS subquery predicates
// (correlation references count as uses of the outer table).
func qualifiersOf(e ast.Expr) map[string]bool {
	out := make(map[string]bool)
	for _, c := range ast.ColumnRefs(e) {
		out[c.Qualifier] = true
	}
	return out
}

// accessPlan is a symbolic index access path: the table, the ordered
// index and, as constants not yet evaluated, the point key (one per
// leading index column that carries an equality) or range bounds the
// index probe will use. It carries no host-variable values — those are
// read per execution by bind — so the plan is cacheable across
// executions of the same statement shape. consumed lists the positions
// (ascending) of the pushed conjuncts the probe fully subsumes; strict
// bounds stay residual because the index range is inclusive.
type accessPlan struct {
	corr               string
	ix                 *storage.OrderedIndex
	eq                 []*constant // point key; when set, lo/hi are unused
	lo, hi             *constant   // range bounds (nil = unbounded side)
	loStrict, hiStrict bool        // bound came from > / < : re-filter boundary
	consumed           []int
}

// constant is a key part or bound of an access path or an index join,
// as written (isConstExpr): a host variable, read from its slot, or a
// value written into the statement.
type constant struct {
	expr ast.Expr
	slot int         // the host variable's; -1 for a written value
	v    value.Value // the written value
}

// newConstant compiles e against the names of the vector's host slots.
func newConstant(e ast.Expr, hosts []string) *constant {
	if h, ok := e.(*ast.HostVar); ok {
		return &constant{expr: e, slot: slices.Index(hosts, h.Name)}
	}
	v, _ := eval.Value(e, nil)
	return &constant{expr: e, slot: -1, v: v}
}

// in points at k's value in the binding vector vals; it is nil for no
// constant, and for a host variable past the end of vals, which a
// plan-only EXPLAIN was given no value for.
func (k *constant) in(vals []value.Value) *value.Value {
	switch {
	case k == nil || k.slot >= len(vals):
		return nil
	case k.slot >= 0:
		return &vals[k.slot]
	}
	return &k.v
}

// bindKind says how an access path binds for one execution.
type bindKind uint8

const (
	scan      bindKind = iota // no path: a full scan
	neverTrue                 // a NULL bound: the comparison is never true, no row qualifies
	point                     // equality probe on eq
	span                      // range scan between lo and hi (nil = open end)
)

// bind says how the access path binds in one execution's vector, for
// render and build alike. A nil receiver is no path. A NULL bound makes
// the comparison never true; an unset one is taken to be another value.
func (ap *accessPlan) bind(vals []value.Value) bindKind {
	null := func(k *constant) bool { v := k.in(vals); return v != nil && v.IsNull() }
	switch {
	case ap == nil:
		return scan
	case null(ap.lo) || null(ap.hi) || slices.ContainsFunc(ap.eq, null):
		return neverTrue
	case len(ap.eq) > 0:
		return point
	}
	return span
}

// detail renders the access path, bound as kind, as EXPLAIN shows it.
func (ap *accessPlan) detail(vals []value.Value, kind bindKind) string {
	spell := func(k *constant) string {
		if v := k.in(vals); v != nil {
			return v.String()
		}
		return k.expr.SQL()
	}
	var detail string
	switch {
	case kind == neverTrue:
		return fmt.Sprintf("%s.%s, never-true NULL bound", ap.corr, ap.ix.Name)
	case kind == point:
		key := make([]string, len(ap.eq))
		for i, k := range ap.eq {
			key[i] = spell(k)
		}
		if detail = strings.Join(key, ", "); len(key) > 1 {
			detail = "(" + detail + ")"
		}
		return fmt.Sprintf("%s via %s = %s", ap.corr, ap.ix.Name, detail)
	case ap.lo != nil && ap.hi != nil:
		detail = fmt.Sprintf("%s via %s BETWEEN %s AND %s", ap.corr, ap.ix.Name, spell(ap.lo), spell(ap.hi))
	case ap.lo != nil:
		detail = fmt.Sprintf("%s via %s >= %s", ap.corr, ap.ix.Name, spell(ap.lo))
	default:
		detail = fmt.Sprintf("%s via %s <= %s", ap.corr, ap.ix.Name, spell(ap.hi))
	}
	if ap.loStrict {
		// Half-open: re-filter the boundary rows.
		detail += ", residual >"
	}
	if ap.hiStrict {
		detail += ", residual <"
	}
	return detail
}

// probe performs the index lookup of a point or span binding in vals and
// returns the ordinals of the matching rows, the key and the ordinals
// carved from sc.
func (ap *accessPlan) probe(kind bindKind, vals []value.Value, sc *engine.Scratch) ([]int, error) {
	if kind == point {
		key := sc.Cells(len(ap.eq))
		for i, k := range ap.eq {
			key[i] = *k.in(vals)
		}
		return ap.ix.Lookup(key, sc.Ints)
	}
	return ap.ix.Range(ap.lo.in(vals), ap.hi.in(vals), sc.Ints), nil
}

// chooseAccessPath inspects the pushed-down conjuncts for tbl and
// returns a symbolic index access plan when one of them is a point or
// range predicate on the leading column of an ordered index (nil = no
// index path; fall back to a full scan). An equality wins outright;
// otherwise every bound on the chosen column is combined, so a
// conjunction bounding it from both sides (SNO >= 10 AND SNO <= 20)
// becomes one closed range scan instead of a half-open scan plus a
// filter. Strict bounds (>, <) widen to the inclusive index range and
// stay in the residual filter. hosts names the vector's host slots.
func (p *Planner) chooseAccessPath(tbl *storage.Table, corr string, push []ast.Expr, hosts []string) *accessPlan {
	// Pick the target column: the first pushed conjunct that is a point
	// or range predicate on an indexed leading column.
	col := ""
	for _, c := range push {
		var ref *ast.ColumnRef
		switch x := c.(type) {
		case *ast.Compare:
			r, k, op := normalizeComparison(x)
			if r == nil || k == nil {
				continue
			}
			switch op {
			case ast.EqOp, ast.GtOp, ast.GeOp, ast.LtOp, ast.LeOp:
				ref = r
			default:
				continue
			}
		case *ast.Between:
			r, isCol := x.X.(*ast.ColumnRef)
			if x.Negated || !isCol || !isConstExpr(x.Lo) || !isConstExpr(x.Hi) {
				continue
			}
			ref = r
		default:
			continue
		}
		if ref.Qualifier != corr {
			continue
		}
		if tbl.OrderedIndexOn(ref.Column) != nil {
			col = ref.Column
			break
		}
	}
	if col == "" {
		return nil
	}
	ap := &accessPlan{corr: corr, ix: tbl.OrderedIndexOn(col)}
	// A point key binds every leading index column that carries an
	// equality: (SNO, PNO) both bound is one row, not the supplier's
	// parts and a filter.
	eqs := constEqualities(corr, push)
	boundPrefix(tbl, ap.ix, func(col string) bool {
		e, ok := constOn(eqs, col)
		if ok {
			ap.eq = append(ap.eq, newConstant(e.k, hosts))
			ap.consumed = append(ap.consumed, e.at)
		}
		return ok
	})
	if len(ap.eq) > 0 {
		sort.Ints(ap.consumed)
		return ap
	}
	for i, c := range push {
		switch x := c.(type) {
		case *ast.Compare:
			ref, k, op := normalizeComparison(x)
			if ref == nil || ref.Qualifier != corr || ref.Column != col {
				continue
			}
			switch op {
			case ast.GeOp:
				if ap.lo == nil {
					ap.lo = newConstant(k, hosts)
					ap.consumed = append(ap.consumed, i)
				}
			case ast.GtOp:
				if ap.lo == nil {
					ap.lo, ap.loStrict = newConstant(k, hosts), true
				}
			case ast.LeOp:
				if ap.hi == nil {
					ap.hi = newConstant(k, hosts)
					ap.consumed = append(ap.consumed, i)
				}
			case ast.LtOp:
				if ap.hi == nil {
					ap.hi, ap.hiStrict = newConstant(k, hosts), true
				}
			}
		case *ast.Between:
			ref, isCol := x.X.(*ast.ColumnRef)
			if x.Negated || !isCol || ref.Qualifier != corr || ref.Column != col {
				continue
			}
			if !isConstExpr(x.Lo) || !isConstExpr(x.Hi) {
				continue
			}
			if ap.lo == nil && ap.hi == nil {
				ap.lo, ap.hi = newConstant(x.Lo, hosts), newConstant(x.Hi, hosts)
				ap.consumed = append(ap.consumed, i)
			}
		}
	}
	if ap.lo == nil && ap.hi == nil {
		return nil
	}
	sort.Ints(ap.consumed)
	return ap
}

// constEquality is a conjunct binding a column to a constant or host
// variable: the column, the constant, and the conjunct's position in the
// list it was found in.
type constEquality struct {
	col string
	k   ast.Expr
	at  int
}

// constEqualities returns, in conjunct order, the first conjunct of
// conj per column of corr that equates it with a constant.
func constEqualities(corr string, conj []ast.Expr) []constEquality {
	var out []constEquality
	seen := map[string]bool{}
	for i, c := range conj {
		cmp, ok := c.(*ast.Compare)
		if !ok {
			continue
		}
		ref, k, op := normalizeComparison(cmp)
		if ref == nil || op != ast.EqOp || ref.Qualifier != corr || seen[ref.Column] {
			continue
		}
		seen[ref.Column] = true
		out = append(out, constEquality{col: ref.Column, k: k, at: i})
	}
	return out
}

// constOn returns the equality of eqs that binds col.
func constOn(eqs []constEquality, col string) (constEquality, bool) {
	for _, e := range eqs {
		if e.col == col {
			return e, true
		}
	}
	return constEquality{}, false
}

// boundPrefix walks ix's columns from the first, asking bound about each
// by name, and returns how many it accepted before the first refusal:
// the length of the leading prefix an index probe can use. It is the
// one key-assembly walk, shared by point access paths and index joins.
func boundPrefix(tbl *storage.Table, ix *storage.OrderedIndex, bound func(col string) bool) int {
	for n, ci := range ix.Columns {
		if !bound(tbl.Schema.Columns[ci].Name) {
			return n
		}
	}
	return len(ix.Columns)
}

// normalizeComparison orients a comparison as (column op constant),
// flipping the operator when the column is on the right. Returns a nil
// column when the shape does not match.
func normalizeComparison(cmp *ast.Compare) (*ast.ColumnRef, ast.Expr, ast.CompareOp) {
	l, lok := cmp.L.(*ast.ColumnRef)
	r, rok := cmp.R.(*ast.ColumnRef)
	switch {
	case lok && !rok && isConstExpr(cmp.R):
		return l, cmp.R, cmp.Op
	case rok && !lok && isConstExpr(cmp.L):
		return r, cmp.L, cmp.Op.Flip()
	default:
		return nil, nil, cmp.Op
	}
}

func isConstExpr(e ast.Expr) bool {
	switch e.(type) {
	case *ast.IntLit, *ast.StringLit, *ast.BoolLit, *ast.HostVar:
		return true
	default:
		return false
	}
}
