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
// execution machinery.
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
	// MaxRows bounds the rows any single query may materialize across
	// its operators (0 = unlimited); exceeding it fails the query with
	// an error matching engine.ErrBudgetExceeded.
	MaxRows int64
	// MemBudget bounds the estimated bytes a query may materialize
	// (hash tables, sort buffers, outputs; 0 = unlimited).
	MemBudget int64
	// ExplainOnly plans the query without touching base-table data:
	// every table access yields an empty relation of the right shape,
	// so the plan tree (Result.Root) has exactly the structure a real
	// execution would, at near-zero cost. Result.Rel is an empty
	// relation and per-operator metrics stay unpopulated.
	ExplainOnly bool
	// Streaming executes query specifications as pull-based batched
	// iterator pipelines instead of materializing every operator's
	// output: only blocking state (hash tables, sort buffers) is ever
	// resident, so MemBudget bounds the pipeline's live footprint
	// rather than the sum of intermediate results. Results, plan trees,
	// and row order are identical to materializing execution.
	// ExplainOnly takes precedence (nothing executes either way).
	Streaming bool
}

// Result is the outcome of planning and executing one query.
type Result struct {
	Rel      *engine.Relation
	Stats    engine.Stats
	Rewrites []core.Applied
	Plan     []string // textual plan, one operator per line (legacy rendering)
	// Root is the typed plan tree. Per-operator metrics (rows, wall
	// time, parallel-path usage) are recorded unless ExplainOnly.
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
	res, err := p.Execute(ctx, c, hosts)
	if err != nil {
		return nil, err
	}
	res.Stats.Add(compileStats)
	return res, nil
}

// Execute runs a compiled statement under ctx with this execution's
// host-variable bindings (lifted literals among them). Cancellation and
// deadlines are honored cooperatively inside every engine operator;
// Options.MaxRows / Options.MemBudget (or a governor already attached
// to ctx) bound the query's materializations; and any panic below this
// boundary is contained into an *engine.InternalError. On error the
// result is nil — partial rows are never exposed. c is only read.
func (p *Planner) Execute(ctx context.Context, c *Compiled, hosts map[string]value.Value) (res *Result, err error) {
	defer func() {
		if err != nil {
			res, err = nil, unlift(err, hosts)
		}
	}()
	defer engine.Contain("plan.Run", &err)
	if hosts == nil {
		hosts = map[string]value.Value{}
	}
	if engine.GovernorFrom(ctx) == nil {
		if g := engine.NewGovernor(p.Opts.MaxRows, p.Opts.MemBudget); g != nil {
			ctx = engine.WithGovernor(ctx, g)
		}
	}
	res = &Result{}
	for _, r := range c.rewrites {
		ap := r.ap
		ap.Description, ap.Before, ap.After = r.desc.in(hosts), r.before.in(hosts), r.after.in(hosts)
		res.Rewrites = append(res.Rewrites, ap)
	}
	if c.costNote != "" {
		res.Plan = append(res.Plan, c.costNote)
	}
	switch x := c.run.(type) {
	case *ast.Select:
		rel, root, err := p.execSelect(ctx, c.blocks[0], hosts, res)
		if err != nil {
			return nil, err
		}
		res.Rel = rel
		res.Root = root
	case *ast.SetOp:
		l, ln, err := p.execSelect(ctx, c.blocks[0], hosts, res)
		if err != nil {
			return nil, err
		}
		r, rn, err := p.execSelect(ctx, c.blocks[1], hosts, res)
		if err != nil {
			return nil, err
		}
		if len(l.Cols) != len(r.Cols) {
			return nil, fmt.Errorf("plan: set operands are not union-compatible")
		}
		// Set operations execute the way the paper says typical
		// optimizers do (§5.3): sort each operand and merge. The
		// Theorem 3 / Corollary 2 rewrites exist to avoid these sorts.
		op := "IntersectSortMerge"
		if x.Op != ast.Intersect {
			op = "ExceptSortMerge"
		}
		rel, node, err := timedOp(res, !p.Opts.ExplainOnly, op,
			fmt.Sprintf("all=%v", x.All), int64(l.Len()+r.Len()), []*Node{ln, rn},
			func() (*engine.Relation, error) {
				if x.Op == ast.Intersect {
					return engine.IntersectSort(ctx, &res.Stats, l, r, x.All)
				}
				return engine.ExceptSort(ctx, &res.Stats, l, r, x.All)
			})
		res.Plan = append(res.Plan, fmt.Sprintf("%s(all=%v)", op, x.All))
		if err != nil {
			return nil, err
		}
		res.Rel = rel
		res.Root = node
	}
	if c.costNote != "" && res.Root != nil {
		res.Root.Notes = append(res.Root.Notes, c.costNote)
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

// selectPlan is the pure planning outcome for one query specification:
// every decision — per-table pushdown, access paths, the left-deep
// join order with its keys, the residual predicate, projection, and
// duplicate elimination — made before any table data is touched. Both
// the materializing and the streaming executors consume the same
// selectPlan, which is what guarantees they run the same physical
// plan (and, with order-deterministic operators, produce
// byte-identical results).
type selectPlan struct {
	scope    *catalog.Scope
	tables   []accessStep
	joins    []joinStep // joins[k] combines tables[k+1] into the tree
	residual filter
	cols     []string
	colList  string // cols joined for the Project rendering
	distinct bool
	// Join-order provenance, rendered by EXPLAIN on the root node and
	// as a legacy plan line ("" when ordering did not apply).
	orderLine string // JoinOrder(...) legacy plan line
	orderNote string // chosen order vs written order
	startNote text   // why the first table starts the join
}

// accessStep is one base-table access: the symbolic access path (nil =
// full scan) plus the pushed single-table conjuncts — push carries all
// of them (the fallback filter when the path fails to bind at
// execution), pushResidual the ones the path does not subsume.
type accessStep struct {
	corr         string
	tbl          *storage.Table
	ap           *accessPlan
	push         filter
	pushResidual filter
}

// joinStep holds the equi-join keys binding the next table into the
// left-deep tree (empty = Cartesian product) and the cardinality-bound
// note that justified its position in the join order ("" = none).
// buildLeft flips the hash join's roles: the accumulated prefix —
// known to be bounded to at most one row by a constant-bound key —
// becomes the build side, and the incoming table streams through as
// the probe, so a large unfiltered table is never materialized into a
// hash table just because it joins a tiny prefix.
type joinStep struct {
	lk, rk    []string
	detail    string // the HashJoin rendering ("" for a product)
	bound     text
	buildLeft bool
}

// buildPrefixNote is attached to a hash-join node whose roles were
// flipped because the accumulated prefix is bounded to at most one row.
const buildPrefixNote = "builds the bounded join prefix (≤1 row) as the hash side"

// planSelect makes every planning decision for one query
// specification without executing anything and without reading any
// host-variable binding — the selectPlan depends only on the query
// shape and the schema, which is what makes it cacheable.
func (p *Planner) planSelect(s *ast.Select) (*selectPlan, error) {
	scope, err := catalog.NewScope(p.DB.Catalog(), s.From, nil)
	if err != nil {
		return nil, err
	}
	// Qualify and split the predicate.
	var conjuncts []ast.Expr
	for _, c := range ast.Conjuncts(s.Where) {
		q, err := p.An.QualifyExpr(c, scope)
		if err != nil {
			return nil, err
		}
		conjuncts = append(conjuncts, q)
	}
	sp := &selectPlan{scope: scope, distinct: s.Quant.IsDistinct()}
	terms := make([]*tableTerm, 0, len(s.From))
	for _, tr := range s.From {
		corr := strings.ToUpper(tr.Name())
		tbl, ok := p.DB.Table(tr.Table)
		if !ok {
			return nil, fmt.Errorf("plan: unknown table %s", tr.Table)
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
	sp.startNote = newText(startNote)
	if len(order) > 1 && !p.Opts.WrittenJoinOrder {
		chosen := make([]string, len(order))
		written := make([]string, len(terms))
		for i, st := range order {
			chosen[i] = terms[st.idx].corr
			written[i] = terms[i].corr
		}
		sp.orderLine = fmt.Sprintf("JoinOrder(%s)", strings.Join(chosen, ", "))
		if strings.Join(chosen, ",") == strings.Join(written, ",") {
			sp.orderNote = fmt.Sprintf("join order: %s (as written)", strings.Join(chosen, ", "))
		} else {
			sp.orderNote = fmt.Sprintf("join order: %s (written: %s)",
				strings.Join(chosen, ", "), strings.Join(written, ", "))
		}
	}
	for _, st := range order {
		t := terms[st.idx]
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
		sp.tables = append(sp.tables, accessStep{corr: t.corr, tbl: t.tbl, ap: ap,
			push: newFilter(all), pushResidual: newFilter(residual)})
	}

	// Left-deep join tree: bind each further table with whatever
	// equality conjuncts connect it to the tables already joined.
	// prefixTiny tracks whether the accumulated prefix is still bounded
	// to at most one row (a key-bound start followed by unique probes);
	// while it is, each hash join builds the prefix, not the new table.
	bound := map[string]bool{sp.tables[0].corr: true}
	prefixTiny := startTiny
	for k, t := range sp.tables[1:] {
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
			case bound[lref.Qualifier] && rref.Qualifier == t.corr:
				lk = append(lk, lref.Qualifier+"."+lref.Column)
				rk = append(rk, rref.Qualifier+"."+rref.Column)
				used[i] = true
			case bound[rref.Qualifier] && lref.Qualifier == t.corr:
				lk = append(lk, rref.Qualifier+"."+rref.Column)
				rk = append(rk, lref.Qualifier+"."+lref.Column)
				used[i] = true
			}
		}
		j := joinStep{lk: lk, rk: rk, bound: newText(order[k+1].bound),
			buildLeft: prefixTiny && len(lk) > 0}
		switch {
		case j.buildLeft:
			j.detail = strings.Join(rk, ",") + " = " + strings.Join(lk, ",")
		case len(lk) > 0:
			j.detail = strings.Join(lk, ",") + " = " + strings.Join(rk, ",")
		}
		sp.joins = append(sp.joins, j)
		prefixTiny = prefixTiny && order[k+1].unique
		bound[t.corr] = true
	}

	// Residual predicates (cross-table non-equalities, EXISTS, ...).
	var residual []ast.Expr
	for i, c := range conjuncts {
		if !used[i] {
			residual = append(residual, c)
		}
	}
	sp.residual = newFilter(residual)

	refs, err := scope.ExpandItems(s.Items)
	if err != nil {
		return nil, err
	}
	sp.cols = make([]string, len(refs))
	for i, r := range refs {
		sp.cols[i] = r.Qualifier + "." + r.Column
	}
	sp.colList = strings.Join(sp.cols, ", ")
	return sp, nil
}

// execSelect executes one planned query specification — with the
// materializing operators below, or as a streaming iterator pipeline
// (stream.go) when Options.Streaming is set. It returns the result
// relation together with the typed plan subtree it executed (the
// legacy Result.Plan lines are appended as before). sp is only read;
// every rendering that quotes the query is spliced from its text.
func (p *Planner) execSelect(ctx context.Context, sp *selectPlan, hosts map[string]value.Value, res *Result) (*engine.Relation, *Node, error) {
	if sp.orderLine != "" {
		res.Plan = append(res.Plan, sp.orderLine)
	}
	if p.Opts.Streaming && !p.Opts.ExplainOnly {
		return p.execSelectStream(ctx, sp, hosts, res)
	}
	analyzed := !p.Opts.ExplainOnly
	var err error

	type pendingTable struct {
		rel  *engine.Relation
		node *Node
	}
	// Scan each table and apply its pushed-down filter.
	envProto := &eval.Env{
		Cols:   map[string]value.Value{},
		Hosts:  hosts,
		Exists: p.naiveExists(ctx, hosts, res),
		In:     p.naiveIn(ctx, hosts, res),
	}
	var tables []pendingTable
	for _, t := range sp.tables {
		tbl, corr := t.tbl, t.corr
		var rel *engine.Relation
		var node *Node
		// Bind the symbolic access path against this execution's host
		// variables; a nil decision falls back to scan + full filter.
		dec := t.ap.bind(tbl, corr, hosts)
		f := t.pushResidual
		if dec == nil {
			f = t.push
		}
		if dec != nil {
			rel, node, err = timedOp(res, analyzed, dec.op, dec.detail, int64(tbl.Len()), nil,
				func() (*engine.Relation, error) {
					if p.Opts.ExplainOnly {
						return engine.NewRelation(qualifiedCols(tbl, corr)...), nil
					}
					return dec.exec(ctx, &res.Stats)
				})
			if err != nil {
				return nil, nil, err
			}
			res.Plan = append(res.Plan, dec.op+"("+dec.detail+")")
		} else {
			detail := tbl.Schema.Name + " as " + corr
			rel, node, err = timedOp(res, analyzed, "Scan", detail, int64(tbl.Len()), nil,
				func() (*engine.Relation, error) {
					if p.Opts.ExplainOnly {
						return engine.NewRelation(qualifiedCols(tbl, corr)...), nil
					}
					if f.pred != nil {
						// The Filter below reads the table's rows where
						// they lie and charges only what it keeps.
						return engine.ScanInPlace(ctx, &res.Stats, tbl, corr)
					}
					return engine.Scan(ctx, &res.Stats, tbl, corr)
				})
			if err != nil {
				return nil, nil, err
			}
			res.Plan = append(res.Plan, "Scan("+detail+")")
		}
		if f.pred != nil {
			in, detail := rel, f.text.in(hosts)
			rel, node, err = timedOp(res, analyzed, "Filter", detail, int64(in.Len()), []*Node{node},
				func() (*engine.Relation, error) {
					return engine.Filter(ctx, &res.Stats, in, f.pred, envProto)
				})
			if err != nil {
				return nil, nil, err
			}
			res.Plan = append(res.Plan, "  Filter("+detail+")")
		}
		tables = append(tables, pendingTable{rel: rel, node: node})
	}

	// Left-deep join tree.
	cur := tables[0].rel
	curNode := tables[0].node
	for k, t := range tables[1:] {
		j := sp.joins[k]
		l, lnode := cur, curNode
		if len(j.lk) > 0 && j.buildLeft {
			// The accumulated prefix is bounded (≤1 row): build it as
			// the hash side and stream the new table through as probe.
			cur, curNode, err = timedOp(res, analyzed, "HashJoin", j.detail,
				int64(l.Len()+t.rel.Len()), []*Node{t.node, lnode},
				func() (*engine.Relation, error) {
					return engine.HashJoin(ctx, &res.Stats, t.rel, l, j.rk, j.lk)
				})
			if err != nil {
				return nil, nil, err
			}
			curNode.Notes = append(curNode.Notes, buildPrefixNote)
			res.Plan = append(res.Plan, "HashJoin("+j.detail+")")
		} else if len(j.lk) > 0 {
			cur, curNode, err = timedOp(res, analyzed, "HashJoin", j.detail,
				int64(l.Len()+t.rel.Len()), []*Node{lnode, t.node},
				func() (*engine.Relation, error) {
					return engine.HashJoin(ctx, &res.Stats, l, t.rel, j.lk, j.rk)
				})
			if err != nil {
				return nil, nil, err
			}
			res.Plan = append(res.Plan, "HashJoin("+j.detail+")")
		} else {
			cur, curNode, err = timedOp(res, analyzed, "Product", "",
				int64(l.Len()+t.rel.Len()), []*Node{lnode, t.node},
				func() (*engine.Relation, error) {
					return engine.Product(ctx, &res.Stats, l, t.rel)
				})
			if err != nil {
				return nil, nil, err
			}
			res.Plan = append(res.Plan, "Product")
		}
		if note := j.bound.in(hosts); note != "" {
			curNode.Notes = append(curNode.Notes, note)
		}
	}

	if sp.residual.pred != nil {
		env := &eval.Env{Cols: map[string]value.Value{}, Hosts: hosts,
			Scope: sp.scope, Exists: p.naiveExists(ctx, hosts, res),
			In: p.naiveIn(ctx, hosts, res)}
		in, detail := cur, sp.residual.text.in(hosts)
		cur, curNode, err = timedOp(res, analyzed, "Filter", detail, int64(in.Len()), []*Node{curNode},
			func() (*engine.Relation, error) {
				return engine.Filter(ctx, &res.Stats, in, sp.residual.pred, env)
			})
		if err != nil {
			return nil, nil, err
		}
		res.Plan = append(res.Plan, "Filter("+detail+")")
	}

	// Projection and duplicate elimination.
	{
		in := cur
		cur, curNode, err = timedOp(res, analyzed, "Project", sp.colList, int64(in.Len()), []*Node{curNode},
			func() (*engine.Relation, error) {
				return engine.Project(ctx, &res.Stats, in, sp.cols)
			})
		if err != nil {
			return nil, nil, err
		}
		res.Plan = append(res.Plan, "Project("+sp.colList+")")
	}
	if sp.distinct {
		op := "DistinctSort"
		if p.Opts.HashDistinct {
			op = "DistinctHash"
		}
		in := cur
		cur, curNode, err = timedOp(res, analyzed, op, "", int64(in.Len()), []*Node{curNode},
			func() (*engine.Relation, error) {
				if p.Opts.HashDistinct {
					return engine.DistinctHash(ctx, &res.Stats, in)
				}
				return engine.DistinctSort(ctx, &res.Stats, in)
			})
		if err != nil {
			return nil, nil, err
		}
		res.Plan = append(res.Plan, op)
	}
	attachOrderNotes(curNode, sp, hosts)
	return cur, curNode, nil
}

// attachOrderNotes records the chosen join order and the start-table
// justification on the plan root, where EXPLAIN renders them above the
// per-join bound notes.
func attachOrderNotes(root *Node, sp *selectPlan, hosts map[string]value.Value) {
	if root == nil || sp.orderNote == "" {
		return
	}
	root.Notes = append(root.Notes, sp.orderNote)
	if note := sp.startNote.in(hosts); note != "" {
		root.Notes = append(root.Notes, note)
	}
}

// naiveExists evaluates EXISTS subqueries with the reference executor
// (nested loops): the baseline strategy Kim and Pirahesh et al. set
// out to avoid. Subquery work is accumulated into res.Stats.
func (p *Planner) naiveExists(ctx context.Context, hosts map[string]value.Value, res *Result) eval.ExistsFunc {
	ex := engine.NewExecutor(p.DB, hosts)
	ex.Stats = &res.Stats
	return ex.ExistsProbeCtx(ctx)
}

// naiveIn evaluates IN-subqueries with the reference executor.
func (p *Planner) naiveIn(ctx context.Context, hosts map[string]value.Value, res *Result) eval.InFunc {
	ex := engine.NewExecutor(p.DB, hosts)
	ex.Stats = &res.Stats
	return ex.InProbeCtx(ctx)
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

// accessPlan is a symbolic index access path: the target column and,
// as unevaluated expressions, the point key or range bounds the index
// probe will use. It carries no host-variable values — those are
// resolved per execution by bind — so the plan is cacheable across
// executions of the same statement shape. consumed lists the positions
// (ascending) of the pushed conjuncts the probe fully subsumes; strict
// bounds stay residual because the index range is inclusive.
type accessPlan struct {
	column             string
	eq                 ast.Expr // point key; when set, lo/hi are unused
	lo, hi             ast.Expr // range bounds (nil = unbounded side)
	loStrict, hiStrict bool     // bound came from > / < : re-filter boundary
	consumed           []int
}

// accessDecision is a bound access path for one execution: the plan
// rendering (op + detail) and the deferred execution bodies — exec
// materializes the rows, stream performs the index probe and returns
// a batched iterator over the matched ordinals. Splitting the decision
// from the execution lets ExplainOnly render the exact access path a
// real run would take without reading any table data.
type accessDecision struct {
	op     string
	detail string
	exec   func(ctx context.Context, st *engine.Stats) (*engine.Relation, error)
	stream func(st *engine.Stats) (engine.Iterator, error)
}

// bind evaluates the access plan's bounds against one execution's host
// variables. A nil receiver or an unevaluable bound (unbound host
// variable) yields nil: fall back to scan + full filter, where the
// predicate reports the error the paper-facing way. A NULL bound makes
// the comparison never true: the decision is an empty relation.
func (ap *accessPlan) bind(tbl *storage.Table, corr string, hosts map[string]value.Value) *accessDecision {
	if ap == nil {
		return nil
	}
	ix := tbl.OrderedIndexOn(ap.column)
	if ix == nil {
		return nil
	}
	env := &eval.Env{Cols: map[string]value.Value{}, Hosts: hosts}
	nullDecision := &accessDecision{op: "IndexScan",
		detail: fmt.Sprintf("%s.%s, never-true NULL bound", corr, ix.Name),
		exec: func(context.Context, *engine.Stats) (*engine.Relation, error) {
			return engine.NewRelation(qualifiedCols(tbl, corr)...), nil
		},
		stream: func(*engine.Stats) (engine.Iterator, error) {
			return engine.NewEmptyIter(qualifiedCols(tbl, corr)), nil
		}}
	if ap.eq != nil {
		v, err := eval.Value(ap.eq, env)
		if err != nil {
			return nil
		}
		if v.IsNull() {
			return nullDecision
		}
		return &accessDecision{op: "IndexScan",
			detail: fmt.Sprintf("%s via %s = %s", corr, ix.Name, v),
			exec: func(ctx context.Context, st *engine.Stats) (*engine.Relation, error) {
				return engine.IndexScanEq(ctx, st, tbl, corr, ix, value.Row{v})
			},
			stream: func(st *engine.Stats) (engine.Iterator, error) {
				ords, err := ix.Lookup(value.Row{v})
				if err != nil {
					return nil, err
				}
				return engine.NewIndexScanIter(st, tbl, corr, ords), nil
			}}
	}
	var lo, hi *value.Value
	if ap.lo != nil {
		v, err := eval.Value(ap.lo, env)
		if err != nil {
			return nil
		}
		if v.IsNull() {
			return nullDecision
		}
		lo = &v
	}
	if ap.hi != nil {
		v, err := eval.Value(ap.hi, env)
		if err != nil {
			return nil
		}
		if v.IsNull() {
			return nullDecision
		}
		hi = &v
	}
	var detail string
	switch {
	case lo != nil && hi != nil:
		detail = fmt.Sprintf("%s via %s BETWEEN %s AND %s", corr, ix.Name, *lo, *hi)
	case lo != nil:
		detail = fmt.Sprintf("%s via %s >= %s", corr, ix.Name, *lo)
	default:
		detail = fmt.Sprintf("%s via %s <= %s", corr, ix.Name, *hi)
	}
	if ap.loStrict {
		// Half-open: re-filter the boundary rows.
		detail += ", residual >"
	}
	if ap.hiStrict {
		detail += ", residual <"
	}
	return &accessDecision{op: "IndexScan", detail: detail,
		exec: func(ctx context.Context, st *engine.Stats) (*engine.Relation, error) {
			return engine.IndexScanRange(ctx, st, tbl, corr, ix, lo, hi)
		},
		stream: func(st *engine.Stats) (engine.Iterator, error) {
			return engine.NewIndexScanIter(st, tbl, corr, ix.Range(lo, hi)), nil
		}}
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
	ap := &accessPlan{column: col}
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

func qualifiedCols(tbl *storage.Table, corr string) []string {
	out := make([]string, len(tbl.Schema.Columns))
	for i, c := range tbl.Schema.Columns {
		out[i] = corr + "." + c.Name
	}
	return out
}
