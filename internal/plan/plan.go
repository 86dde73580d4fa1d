// Package plan turns analyzed queries into physical execution
// strategies over the engine package, and is the harness on which the
// paper's relational experiments run.
//
// Two planner configurations matter for the experiments:
//
//   - the baseline planner executes the query as written: DISTINCT is
//     honored with a full result sort, EXISTS subqueries run as
//     nested-loop probes, and set operations materialize both operands;
//   - the uniqueness-aware planner first applies the core package's
//     rewrites (Theorem 1 DISTINCT elimination, Theorem 2 / Corollary 1
//     subquery merging, Theorem 3 / Corollary 2 set-operation
//     conversion) to fixpoint and then plans the rewritten query.
//
// Both configurations share the same physical operators (hash joins
// for equality predicates, predicate pushdown), so measured deltas are
// attributable to the semantic rewrites rather than to different
// execution machinery: Compile produces one immutable physical plan
// tree (tree.go) and one batch-iterator executor runs it.
package plan

import (
	"context"
	"fmt"
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
	// CostBased, with ApplyRewrites, estimates the cost of the original
	// and the fully rewritten query and executes the cheaper one — the
	// paper's "choose the most appropriate strategy on the basis of
	// its cost model" (Section 5). Without it the rewritten form is
	// always executed.
	CostBased bool
	// HashDistinct performs duplicate elimination with a hash table
	// instead of a sort (ablation #3 in DESIGN.md).
	HashDistinct bool
	// Analyzer options forwarded to the core analyzer.
	Core core.Options
	// MaxRewritePasses bounds the rewrite fixpoint loop (0 = 8).
	MaxRewritePasses int
	// Cache, when non-nil, memoizes analyzer verdicts and predicate
	// normalizations across Run calls (and across planners sharing the
	// cache). Hit/miss deltas are reported in Result.Stats.
	Cache *core.VerdictCache
	// WrittenJoinOrder disables the greedy uniqueness-bounded join
	// ordering and the derived-equality pushdown, executing joins
	// exactly in FROM-list order (the pre-planner behavior; the
	// benchmark baseline).
	WrittenJoinOrder bool
	// MaxRows bounds the rows a query may hold live at once — blocking
	// state (hash tables, sort buffers), in-flight batches and the
	// result (0 = unlimited); exceeding it fails the query with an
	// error matching engine.ErrBudgetExceeded.
	MaxRows int64
	// MemBudget bounds the estimated bytes of the same live footprint
	// (0 = unlimited).
	MemBudget int64
}

// Result is the outcome of planning and executing one query.
type Result struct {
	Rel      *engine.Relation
	Stats    engine.Stats
	Rewrites []core.Applied
	// Root is the plan tree with the per-operator metrics of this
	// execution (rows, batches, wall time, parallel width) when it was
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
		An:   &core.Analyzer{Cat: db.Catalog(), Opts: opts.Core, Cache: opts.Cache},
		Opts: opts,
	}
}

// Run plans and executes q with the given host-variable bindings.
func (p *Planner) Run(q ast.Query, hosts map[string]value.Value) (*Result, error) {
	return p.RunContext(context.Background(), q, hosts)
}

// RunContext plans and executes q under ctx: Compile, then Execute.
func (p *Planner) RunContext(ctx context.Context, q ast.Query, hosts map[string]value.Value) (*Result, error) {
	var compileStats engine.Stats
	c, err := p.Compile(q, &compileStats)
	if err != nil {
		return nil, err
	}
	res, err := p.Execute(ctx, c, hosts, false)
	if err != nil {
		return nil, err
	}
	res.Stats.Add(compileStats)
	return res, nil
}

// Execute runs a compiled statement under ctx with this execution's
// host-variable bindings (lifted literals among them): it builds the
// plan tree's iterator pipeline and drains it. With analyze set — the
// EXPLAIN ANALYZE form — the pipeline is instrumented and Result.Root
// is the rendered tree carrying what each operator did; a plain
// execution allocates no Node, renders no string and reads no clock.
// Cancellation and deadlines are honored cooperatively inside every
// engine operator; Options.MaxRows / Options.MemBudget (or a governor
// already attached to ctx) bound the query's live footprint; and any
// panic below this boundary is contained into an *engine.InternalError.
// On error the result is nil — partial rows are never exposed. c is
// only read.
func (p *Planner) Execute(ctx context.Context, c *Compiled, hosts map[string]value.Value, analyze bool) (res *Result, err error) {
	defer func() {
		if err != nil {
			res, err = nil, unlift(err, hosts)
		}
	}()
	defer engine.Contain("plan.Run", &err)
	if engine.GovernorFrom(ctx) == nil {
		if g := engine.NewGovernor(p.Opts.MaxRows, p.Opts.MemBudget); g != nil {
			ctx = engine.WithGovernor(ctx, g)
		}
	}
	res = &Result{Rewrites: c.Rewrites(hosts)}
	b := &builder{st: &res.Stats, env: eval.Env{Hosts: hosts}, built: make([]engine.Iterator, 0, 8)}
	if c.subqueries {
		ex := engine.NewExecutor(p.DB, hosts)
		ex.Stats = &res.Stats
		b.exists, b.in = ex.ExistsProbeCtx(ctx), ex.InProbeCtx(ctx)
	}
	if analyze {
		res.Root = c.Render(hosts)
	}
	it, err := c.root.build(b, res.Root)
	if err != nil {
		b.closeAll()
		return nil, err
	}
	// Drain closes the pipeline, on success and on error.
	if res.Rel, err = engine.Drain(ctx, &res.Stats, it); err != nil {
		return nil, err
	}
	if analyze {
		finalize(res.Root)
	}
	res.Stats.RowsOutput = int64(res.Rel.Len())
	return res, nil
}

// rewriteFixpoint applies the core rewrites until none fires or the
// pass bound is reached. DISTINCT elimination is attempted after every
// structural rewrite because merges can expose new key bindings.
func (p *Planner) rewriteFixpoint(q ast.Query) (aps []core.Applied, out ast.Query, err error) {
	maxPasses := p.Opts.MaxRewritePasses
	if maxPasses <= 0 {
		maxPasses = 8
	}
	for pass := 0; pass < maxPasses; pass++ {
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
// keys, the residual predicate, projection, duplicate elimination — and
// returns them as a plan subtree with the columns it emits. It executes
// nothing and reads no host-variable binding: the tree depends only on
// the query shape and the schema, which is what makes it cacheable.
func (p *Planner) planSelect(s *ast.Select, c *Compiled) (operator, []string, error) {
	scope, err := catalog.NewScope(p.DB.Catalog(), s.From, nil)
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
		terms = append(terms, &tableTerm{corr: corr, tbl: tbl})
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
	// Sink key-derived constant equalities below the joins, then pick
	// the join order from the resulting per-table bounds.
	if !p.Opts.WrittenJoinOrder {
		deriveConstEqualities(conjuncts, terms)
	}
	order, startNote, startTiny := p.chooseJoinOrder(terms, conjuncts, used)
	orderNote := ""
	if len(order) > 1 && !p.Opts.WrittenJoinOrder {
		chosen := make([]string, len(order))
		written := make([]string, len(terms))
		for i, st := range order {
			chosen[i] = terms[st.idx].corr
			written[i] = terms[i].corr
		}
		if strings.Join(chosen, ",") == strings.Join(written, ",") {
			orderNote = fmt.Sprintf("join order: %s (as written)", strings.Join(chosen, ", "))
		} else {
			orderNote = fmt.Sprintf("join order: %s (written: %s)",
				strings.Join(chosen, ", "), strings.Join(written, ", "))
		}
	}
	tables := make([]*accessOp, len(order))
	corrs := make([]string, len(order))
	for i, st := range order {
		t := terms[st.idx]
		corrs[i] = t.corr
		all := append(append([]ast.Expr{}, t.push...), t.derived...)
		// Prefer an ordered-index access path for a pushed point or
		// range predicate on an indexed leading column.
		ap := p.chooseAccessPath(t.tbl, t.corr, all)
		residual := all
		if ap != nil && len(ap.consumed) > 0 {
			residual = nil
			ci := 0
			for i, c := range all {
				if ci < len(ap.consumed) && ap.consumed[ci] == i {
					ci++
					continue
				}
				residual = append(residual, c)
			}
		}
		tables[i] = &accessOp{tbl: t.tbl, cols: engine.QualifiedCols(t.tbl, t.corr),
			scan: t.tbl.Schema.Name + " as " + t.corr, path: ap,
			push: newFilter(all), rest: newFilter(residual)}
	}

	// Left-deep join tree: bind each further table with whatever
	// equality conjuncts connect it to the tables already joined.
	// prefixTiny tracks whether the accumulated prefix is still bounded
	// to at most one row (a key-bound start followed by unique probes);
	// while it is, each hash join builds the prefix, not the new table:
	// the incoming table streams through as the probe, so a large
	// unfiltered table is never materialized into a hash table just
	// because it joins a tiny prefix.
	var cur operator = tables[0]
	cols := tables[0].cols
	bound := map[string]bool{corrs[0]: true}
	prefixTiny := startTiny
	for k, t := range tables[1:] {
		corr := corrs[k+1]
		var lk, rk []string
		for i, c := range conjuncts {
			if used[i] {
				continue
			}
			cmp, ok := c.(*ast.Compare)
			if !ok || cmp.Op != ast.EqOp {
				continue
			}
			lref, lok := cmp.L.(*ast.ColumnRef)
			rref, rok := cmp.R.(*ast.ColumnRef)
			if !lok || !rok {
				continue
			}
			switch {
			case bound[lref.Qualifier] && rref.Qualifier == corr:
				lk = append(lk, lref.Qualifier+"."+lref.Column)
				rk = append(rk, rref.Qualifier+"."+rref.Column)
				used[i] = true
			case bound[rref.Qualifier] && lref.Qualifier == corr:
				lk = append(lk, rref.Qualifier+"."+rref.Column)
				rk = append(rk, lref.Qualifier+"."+lref.Column)
				used[i] = true
			}
		}
		// The join's inputs are (probe, inner): the prefix probes the new
		// table's hash table, unless the roles flip.
		j := &joinOp{probe: cur, inner: t}
		pcols, icols, pk, ik := cols, t.cols, lk, rk
		if prefixTiny && len(lk) > 0 {
			j.probe, j.inner = t, cur
			pcols, icols, pk, ik = t.cols, cols, rk, lk
			j.note(newText(buildPrefixNote))
		}
		if len(lk) > 0 {
			j.detail = strings.Join(pk, ",") + " = " + strings.Join(ik, ",")
			if j.pi, err = engine.ColIndexes(pcols, pk); err != nil {
				return nil, nil, err
			}
			if j.bi, err = engine.ColIndexes(icols, ik); err != nil {
				return nil, nil, err
			}
		}
		if order[k+1].bound != "" {
			j.note(newText(order[k+1].bound))
		}
		j.cols = append(append([]string{}, pcols...), icols...)
		cur, cols = j, j.cols
		prefixTiny = prefixTiny && order[k+1].unique
		bound[corr] = true
	}

	// Residual predicates (cross-table non-equalities, EXISTS, ...).
	var residual []ast.Expr
	for i, c := range conjuncts {
		if !used[i] {
			residual = append(residual, c)
		}
	}
	if f := newFilter(residual); f.pred != nil {
		fo := &filterOp{child: cur, f: f}
		if ast.HasExists(f.pred) {
			fo.scope, c.subqueries = scope, true
		}
		cur = fo
	}

	// Projection and duplicate elimination.
	refs, err := scope.ExpandItems(s.Items)
	if err != nil {
		return nil, nil, err
	}
	po := &projectOp{child: cur, cols: make([]string, len(refs))}
	for i, r := range refs {
		po.cols[i] = r.Qualifier + "." + r.Column
	}
	po.detail = strings.Join(po.cols, ", ")
	if po.idx, err = engine.ColIndexes(cols, po.cols); err != nil {
		return nil, nil, err
	}
	cur = po
	if s.Quant.IsDistinct() {
		cur = &distinctOp{child: cur, hash: p.Opts.HashDistinct}
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
	return cur, po.cols, nil
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
// index and, as unevaluated expressions, the point key or range bounds
// the index probe will use. It carries no host-variable values — those
// are resolved per execution by bind — so the plan is cacheable across
// executions of the same statement shape. consumed lists the positions
// (ascending) of the pushed conjuncts the probe fully subsumes; strict
// bounds stay residual because the index range is inclusive.
type accessPlan struct {
	corr               string
	ix                 *storage.OrderedIndex
	eq                 ast.Expr // point key; when set, lo/hi are unused
	lo, hi             ast.Expr // range bounds (nil = unbounded side)
	loStrict, hiStrict bool     // bound came from > / < : re-filter boundary
	consumed           []int
}

// bindKind says how an access path bound for one execution.
type bindKind uint8

const (
	unbound   bindKind = iota // no path, or an unevaluable bound: full scan + full filter
	neverTrue                 // a NULL bound: the comparison is never true, no row qualifies
	point                     // equality probe on eq
	span                      // range scan between lo and hi (nil = open end)
)

// binding is an access path bound to one execution's host values. render
// reads its detail, build runs its probe; neither is reached unless the
// other would be, so plan-only and executed shapes cannot diverge.
type binding struct {
	ap     *accessPlan
	kind   bindKind
	eq     value.Value
	lo, hi *value.Value
}

// bind evaluates the access plan's bounds against one execution's host
// variables. A nil receiver or an unevaluable bound (unbound host
// variable) leaves the path unbound: fall back to scan + full filter,
// where the predicate reports the error the paper-facing way. A NULL
// bound makes the comparison never true.
func (ap *accessPlan) bind(hosts map[string]value.Value) binding {
	if ap == nil {
		return binding{}
	}
	env := eval.Env{Hosts: hosts}
	bd := binding{ap: ap, kind: span}
	if ap.eq != nil {
		bd.kind = point
	}
	for i, e := range [...]ast.Expr{ap.eq, ap.lo, ap.hi} {
		if e == nil {
			continue
		}
		v, err := eval.Value(e, &env)
		if err != nil {
			return binding{}
		}
		if v.IsNull() {
			return binding{ap: ap, kind: neverTrue}
		}
		switch i {
		case 0:
			bd.eq = v
		case 1:
			bd.lo = &v
		default:
			bd.hi = &v
		}
	}
	return bd
}

// detail renders the bound access path the way EXPLAIN shows it.
func (bd binding) detail() string {
	ap := bd.ap
	var detail string
	switch {
	case bd.kind == neverTrue:
		return fmt.Sprintf("%s.%s, never-true NULL bound", ap.corr, ap.ix.Name)
	case bd.kind == point:
		return fmt.Sprintf("%s via %s = %s", ap.corr, ap.ix.Name, bd.eq)
	case bd.lo != nil && bd.hi != nil:
		detail = fmt.Sprintf("%s via %s BETWEEN %s AND %s", ap.corr, ap.ix.Name, *bd.lo, *bd.hi)
	case bd.lo != nil:
		detail = fmt.Sprintf("%s via %s >= %s", ap.corr, ap.ix.Name, *bd.lo)
	default:
		detail = fmt.Sprintf("%s via %s <= %s", ap.corr, ap.ix.Name, *bd.hi)
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

// probe performs the index lookup of a point or span binding and
// returns the ordinals of the matching rows.
func (bd binding) probe() ([]int, error) {
	if bd.kind == point {
		return bd.ap.ix.Lookup(value.Row{bd.eq})
	}
	return bd.ap.ix.Range(bd.lo, bd.hi), nil
}

// chooseAccessPath inspects the pushed-down conjuncts for tbl and
// returns a symbolic index access plan when one of them is a point or
// range predicate on the leading column of an ordered index (nil = no
// index path; fall back to a full scan). An equality wins outright;
// otherwise every bound on the chosen column is combined, so a
// conjunction bounding it from both sides (SNO >= 10 AND SNO <= 20)
// becomes one closed range scan instead of a half-open scan plus a
// filter. Strict bounds (>, <) widen to the inclusive index range and
// stay in the residual filter.
func (p *Planner) chooseAccessPath(tbl *storage.Table, corr string, push []ast.Expr) *accessPlan {
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
	for i, c := range push {
		cmp, ok := c.(*ast.Compare)
		if !ok {
			continue
		}
		ref, k, op := normalizeComparison(cmp)
		if ref == nil || op != ast.EqOp || ref.Qualifier != corr || ref.Column != col {
			continue
		}
		ap.eq = k
		ap.consumed = []int{i}
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
					ap.lo = k
					ap.consumed = append(ap.consumed, i)
				}
			case ast.GtOp:
				if ap.lo == nil {
					ap.lo, ap.loStrict = k, true
				}
			case ast.LeOp:
				if ap.hi == nil {
					ap.hi = k
					ap.consumed = append(ap.consumed, i)
				}
			case ast.LtOp:
				if ap.hi == nil {
					ap.hi, ap.hiStrict = k, true
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
				ap.lo, ap.hi = x.Lo, x.Hi
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
