package engine

import (
	"context"
	"fmt"
	"strings"

	"uniqopt/internal/catalog"
	"uniqopt/internal/eval"
	"uniqopt/internal/sql/ast"
	"uniqopt/internal/storage"
	"uniqopt/internal/tvl"
	"uniqopt/internal/value"
)

// Executor evaluates queries directly from their AST with the naive
// strategy: Cartesian product of scans, tuple-at-a-time selection with
// nested-loops subqueries, projection, and sort-based duplicate
// elimination. It is the semantic reference implementation — the plan
// package's optimized strategies are validated against it.
//
// Query is safe for concurrent use from multiple goroutines over a
// quiescent database: each call collects work counters into a private
// Stats instance and merges it into Stats atomically on completion.
//
// QueryContext is the lifecycle-aware entry point: the context's
// cancellation and deadline are polled cooperatively inside every
// operator, a governor attached with WithGovernor bounds the query's
// materialized rows and bytes, and a panic anywhere below this
// boundary is contained into an *InternalError instead of crashing the
// process.
type Executor struct {
	DB    *storage.DB
	Hosts map[string]value.Value
	Stats *Stats
}

// NewExecutor creates an executor over db with the given host-variable
// bindings.
func NewExecutor(db *storage.DB, hosts map[string]value.Value) *Executor {
	if hosts == nil {
		hosts = map[string]value.Value{}
	}
	return &Executor{DB: db, Hosts: hosts, Stats: &Stats{}}
}

// Query evaluates a query specification or query expression without a
// deadline or budget.
func (ex *Executor) Query(q ast.Query) (*Relation, error) {
	return ex.QueryContext(context.Background(), q)
}

// QueryContext evaluates a query under ctx's cancellation, deadline,
// and attached resource governor. Panics below this boundary surface
// as *InternalError; on any error the returned relation is nil — no
// partial results escape.
func (ex *Executor) QueryContext(ctx context.Context, q ast.Query) (rel *Relation, err error) {
	defer func() {
		if err != nil {
			rel = nil
		}
	}()
	defer Contain("engine.Query", &err)
	st := &Stats{}
	defer func() { ex.Stats.Add(*st) }()
	switch x := q.(type) {
	case *ast.Select:
		rel, err := ex.execSelect(ctx, st, x, nil, nil)
		if err != nil {
			return nil, err
		}
		st.RowsOutput += int64(len(rel.Rows))
		return rel, nil
	case *ast.SetOp:
		l, err := ex.execSelect(ctx, st, x.Left, nil, nil)
		if err != nil {
			return nil, err
		}
		r, err := ex.execSelect(ctx, st, x.Right, nil, nil)
		if err != nil {
			return nil, err
		}
		if len(l.Cols) != len(r.Cols) {
			return nil, fmt.Errorf("engine: set operands are not union-compatible (%d vs %d columns)",
				len(l.Cols), len(r.Cols))
		}
		var rel *Relation
		if x.Op == ast.Intersect {
			rel, err = Intersect(ctx, st, l, r, x.All)
		} else {
			rel, err = Except(ctx, st, l, r, x.All)
		}
		if err != nil {
			return nil, err
		}
		st.RowsOutput += int64(len(rel.Rows))
		return rel, nil
	default:
		return nil, fmt.Errorf("engine: unknown query node %T", q)
	}
}

// execSelect evaluates one query specification. outer and outerCols
// carry the enclosing block's scope and current row bindings for
// correlated subqueries; st receives this call's work counters.
func (ex *Executor) execSelect(ctx context.Context, st *Stats, s *ast.Select, outer *catalog.Scope, outerCols map[string]value.Value) (*Relation, error) {
	scope, err := catalog.NewScope(ex.DB.Catalog(), s.From, outer)
	if err != nil {
		return nil, err
	}
	// Extended Cartesian product of all FROM tables.
	var rel *Relation
	for _, tr := range s.From {
		tbl, ok := ex.DB.Table(tr.Table)
		if !ok {
			return nil, fmt.Errorf("engine: unknown table %s", tr.Table)
		}
		scan, err := Scan(ctx, st, tbl, strings.ToUpper(tr.Name()))
		if err != nil {
			return nil, err
		}
		if rel == nil {
			rel = scan
		} else {
			rel, err = Product(ctx, st, rel, scan)
			if err != nil {
				return nil, err
			}
		}
	}
	// Selection, with EXISTS evaluated by recursive execution.
	envProto := &eval.Env{
		Cols:   map[string]value.Value{},
		Hosts:  ex.Hosts,
		Scope:  scope,
		Exists: ex.existsFunc(ctx, st),
		In:     ex.inFunc(ctx, st),
	}
	for k, v := range outerCols {
		envProto.Cols[k] = v
	}
	rel, err = Filter(ctx, st, rel, s.Where, envProto)
	if err != nil {
		return nil, err
	}
	// Projection.
	refs, err := scope.ExpandItems(s.Items)
	if err != nil {
		return nil, err
	}
	cols := make([]string, len(refs))
	for i, r := range refs {
		cols[i] = r.Qualifier + "." + r.Column
	}
	rel, err = Project(ctx, st, rel, cols)
	if err != nil {
		return nil, err
	}
	if s.Quant.IsDistinct() {
		rel, err = DistinctSort(ctx, st, rel)
		if err != nil {
			return nil, err
		}
	}
	return rel, nil
}

// existsFunc returns the EXISTS callback: it snapshots the current
// outer bindings and recursively executes the subquery; EXISTS is true
// iff the result is non-empty. The callback inherits the query's ctx,
// so cancellation reaches nested subquery execution.
func (ex *Executor) existsFunc(ctx context.Context, st *Stats) eval.ExistsFunc {
	return func(sub *ast.Select, env *eval.Env) (tvl.Truth, error) {
		st.SubqueryRuns++
		snapshot := make(map[string]value.Value, len(env.Cols))
		for k, v := range env.Cols {
			snapshot[k] = v
		}
		rel, err := ex.execSelect(ctx, st, sub, env.Scope, snapshot)
		if err != nil {
			return tvl.Unknown, err
		}
		return tvl.Of(len(rel.Rows) > 0), nil
	}
}

// inFunc returns the IN callback: it snapshots the current outer
// bindings, recursively executes the subquery, and returns the values
// of its single output column.
func (ex *Executor) inFunc(ctx context.Context, st *Stats) eval.InFunc {
	return func(sub *ast.Select, env *eval.Env) ([]value.Value, error) {
		st.SubqueryRuns++
		snapshot := make(map[string]value.Value, len(env.Cols))
		for k, v := range env.Cols {
			snapshot[k] = v
		}
		rel, err := ex.execSelect(ctx, st, sub, env.Scope, snapshot)
		if err != nil {
			return nil, err
		}
		if len(rel.Cols) != 1 {
			return nil, fmt.Errorf("engine: IN subquery must produce one column, got %d", len(rel.Cols))
		}
		out := make([]value.Value, len(rel.Rows))
		for i, row := range rel.Rows {
			out[i] = row[0]
		}
		return out, nil
	}
}
