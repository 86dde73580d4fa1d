//go:build fault

// The lifecycle fault matrix: every registered injection point is
// exercised in every failure mode — injected error, injected budget
// exhaustion, injected panic, and injected delay under a deadline —
// and each must produce a clean shutdown: a typed error, no partial
// results, no leaked goroutines, the same verdicts, and correct
// byte-identical results once the fault is cleared.
package fault_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"uniqopt"
	"uniqopt/internal/engine"
	"uniqopt/internal/eval"
	"uniqopt/internal/fault"
	"uniqopt/internal/sql/ast"
	"uniqopt/internal/testleak"
	"uniqopt/internal/value"
)

const (
	qDistinct  = `SELECT DISTINCT S.CITY FROM S WHERE S.CITY = 'city-1'`
	qJoin      = `SELECT S.SNO, P.PNO FROM S, P WHERE S.SNO = P.SNO`
	qIntersect = `SELECT S.SNO FROM S INTERSECT SELECT P.SNO FROM P`
	// P contributes no column and is the many side: a first-match probe
	// of P_SNO per supplier.
	qExists = `SELECT DISTINCT S.SNO FROM S, P WHERE S.SNO = P.SNO`
)

var matrixQueries = []string{qDistinct, qJoin, qIntersect, qExists}

func matrixDB(t testing.TB) *uniqopt.DB {
	t.Helper()
	return matrixDBWith(t, uniqopt.Options{})
}

func matrixDBWith(t testing.TB, opts uniqopt.Options) *uniqopt.DB {
	t.Helper()
	db := uniqopt.OpenWith(opts)
	for _, ddl := range []string{
		`CREATE TABLE S (SNO INTEGER NOT NULL, CITY VARCHAR, PRIMARY KEY (SNO))`,
		`CREATE TABLE P (PNO INTEGER NOT NULL, SNO INTEGER, PRIMARY KEY (PNO))`,
	} {
		if err := db.Exec(ddl); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 500; i++ {
		if err := db.Insert("S", i, fmt.Sprintf("city-%d", i%7)); err != nil {
			t.Fatal(err)
		}
		if err := db.Insert("P", i, i%250); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.CreateIndex("P", "P_SNO", "SNO"); err != nil {
		t.Fatal(err)
	}
	return db
}

// synth builds a relation for the direct engine-operator legs.
func synth(prefix string, rows int) *engine.Relation {
	rel := &engine.Relation{Cols: []string{prefix + ".K", prefix + ".V"}}
	rel.Rows = make([]value.Row, rows)
	for i := range rel.Rows {
		rel.Rows[i] = value.Row{value.Int(int64(i % 50)), value.Int(int64(i))}
	}
	return rel
}

// runAll drives every fault point: the planner queries, optimized and
// as written — Planner.Execute over plan trees with scan, filter, hash
// join, first-match index probe, distinct, and the sort-merge set
// operation — plus every iterator operator directly. It returns the
// first error, after verifying no failing step leaked a partial result.
func runAll(ctx context.Context, db *uniqopt.DB) error {
	for _, optimize := range []bool{true, false} {
		for _, q := range matrixQueries {
			rows, err := db.QueryWithContext(ctx, q, nil, optimize)
			if err != nil {
				if rows != nil {
					return fmt.Errorf("query %q: partial result escaped alongside %w", q, err)
				}
				return err
			}
		}
	}
	l, r := synth("L", 1_000), synth("R", 1_000)
	type step struct {
		name string
		run  func() (*engine.Relation, error)
	}
	st := &engine.Stats{}
	// Every direct leg runs on one scratch, under one governor generous
	// enough never to bind: whatever a leg charges it must have given
	// back by the time its pipeline is closed — all of it when the leg
	// failed, all but its drained result when it did not.
	sc := engine.NewScratch()
	gov := sc.Budget(1<<40, 1<<40)
	// join is the resolved plan of l joined to r on their first columns,
	// or with no key their product.
	join := func(r *engine.Relation, key []int) *engine.Join {
		j := &engine.Join{Emit: engine.IdentityEmit(len(l.Cols), len(r.Cols)), Pi: key, Bi: key}
		if err := j.Resolve(l.Cols, r.Cols); err != nil {
			panic(err)
		}
		return j
	}
	steps := []step{
		// Iterator legs: pull-based pipelines hit the per-batch
		// engine.stream.next point and the operators' own points from
		// inside a pipeline. Drain closes the pipeline on error, so a
		// mid-stream fault must not leak charges or goroutines.
		{"FilterIter", func() (*engine.Relation, error) {
			pred := &ast.Compare{Op: ast.GeOp, L: &ast.ColumnRef{Qualifier: "L", Column: "K"}, R: &ast.IntLit{V: 10}}
			return engine.Drain(ctx, sc, st, engine.NewFilterIter(sc, st, engine.NewRelationIter(sc, st, l), eval.Prepare(pred, l.Cols, nil).Arm(nil, nil, nil)))
		}},
		{"ProjectIter", func() (*engine.Relation, error) {
			proj := &engine.Projection{Cols: []string{"L.V"}, Idx: []int{1}}
			if err := proj.Resolve(l.Cols); err != nil {
				return nil, err
			}
			return engine.Drain(ctx, sc, st, engine.NewProjectIter(sc, st, engine.NewRelationIter(sc, st, l), proj))
		}},
		{"DistinctHashIter", func() (*engine.Relation, error) {
			return engine.Drain(ctx, sc, st, engine.NewDistinctHashIter(sc, st, engine.NewRelationIter(sc, st, l)))
		}},
		{"DistinctSortIter", func() (*engine.Relation, error) {
			return engine.Drain(ctx, sc, st, engine.NewDistinctSortIter(sc, st, engine.NewRelationIter(sc, st, l)))
		}},
		{"HashJoinIter", func() (*engine.Relation, error) {
			return engine.Drain(ctx, sc, st, engine.NewHashJoinIter(sc, st,
				engine.NewRelationIter(sc, st, l), engine.NewRelationIter(sc, st, r), join(r, []int{0})))
		}},
		{"IndexJoinIter", func() (*engine.Relation, error) {
			p := db.Store().MustTable("P")
			in := &engine.IndexProbe{Tbl: p, Ix: p.OrderedIndexOn("SNO"), Cols: []string{"P.PNO", "P.SNO"},
				Key: []int{0}, Emit: engine.IdentityEmit(2, 2)}
			if err := in.Resolve(l.Cols); err != nil {
				return nil, err
			}
			return engine.Drain(ctx, sc, st, engine.NewIndexJoinIter(sc, st, engine.NewRelationIter(sc, st, l), in, sc.Cells(1), eval.Filter{}))
		}},
		{"ProductIter", func() (*engine.Relation, error) {
			small := &engine.Relation{Cols: r.Cols, Rows: r.Rows[:20]}
			return engine.Drain(ctx, sc, st, engine.NewProductIter(sc, st,
				engine.NewRelationIter(sc, st, l), engine.NewRelationIter(sc, st, small), join(small, nil)))
		}},
		{"SetOpIter", func() (*engine.Relation, error) {
			return engine.Drain(ctx, sc, st, engine.NewSetOpIter(sc, st,
				engine.NewRelationIter(sc, st, l), engine.NewRelationIter(sc, st, r), true, true))
		}},
	}
	for _, s := range steps {
		rows0, bytes0 := gov.Usage()
		rel, err := runContained(s.name, s.run)
		rows1, bytes1 := gov.Usage()
		if err != nil {
			if rel != nil {
				return fmt.Errorf("%s: partial result escaped alongside %w", s.name, err)
			}
			if strings.HasSuffix(s.name, "Iter") && (rows1 != rows0 || bytes1 != bytes0) {
				return fmt.Errorf("%s: %d rows / %d bytes still charged after it failed with %w",
					s.name, rows1-rows0, bytes1-bytes0, err)
			}
			return err
		}
		if strings.HasSuffix(s.name, "Iter") && rows1-rows0 != int64(rel.Len()) {
			return fmt.Errorf("%s: %d rows still charged for a %d-row result", s.name, rows1-rows0, rel.Len())
		}
	}
	return nil
}

// runContained wraps a direct operator call in the same panic
// containment a query boundary provides, so ModePanic injections in
// the direct legs degrade to errors like they do behind the planner.
func runContained(op string, f func() (*engine.Relation, error)) (rel *engine.Relation, err error) {
	defer func() {
		if err != nil {
			rel = nil
		}
	}()
	defer engine.Contain(op, &err)
	return f()
}

func settle(base int) int { return testleak.Settle(base) }

func TestFaultMatrix(t *testing.T) {
	if !fault.Enabled() {
		t.Fatal("matrix requires -tags fault")
	}
	db := matrixDB(t)

	fault.Reset()
	// Baselines: analysis verdict and clean-run results.
	verdict, err := db.Analyze(qDistinct)
	if err != nil {
		t.Fatal(err)
	}
	baseline := map[string][][]any{}
	for _, q := range matrixQueries {
		rows, err := db.Query(q)
		if err != nil {
			t.Fatalf("baseline %q: %v", q, err)
		}
		baseline[q] = rows.Data
	}
	if err := runAll(context.Background(), db); err != nil {
		t.Fatalf("clean runAll: %v", err)
	}

	// Only the engine's points: unit tests in this package register
	// scratch points in the same process-wide registry.
	var points []string
	for _, p := range fault.Registered() {
		if strings.HasPrefix(p, "engine.") {
			points = append(points, p)
		}
	}
	if len(points) == 0 {
		t.Fatal("no engine fault points registered — engine init missing?")
	}

	type mode struct {
		name  string
		spec  fault.Spec
		ctx   func() (context.Context, context.CancelFunc)
		check func(t *testing.T, point string, err error)
	}
	budget := &engine.BudgetError{Resource: "rows", Limit: 1, Used: 2}
	modes := []mode{
		{
			name: "error",
			spec: fault.Spec{Mode: fault.ModeError},
			ctx:  func() (context.Context, context.CancelFunc) { return context.Background(), func() {} },
			check: func(t *testing.T, point string, err error) {
				if !errors.Is(err, fault.ErrInjected) {
					t.Errorf("point %s error mode: %v, want ErrInjected", point, err)
				}
			},
		},
		{
			name: "budget",
			spec: fault.Spec{Mode: fault.ModeError, Err: budget},
			ctx:  func() (context.Context, context.CancelFunc) { return context.Background(), func() {} },
			check: func(t *testing.T, point string, err error) {
				if !errors.Is(err, engine.ErrBudgetExceeded) {
					t.Errorf("point %s budget mode: %v, want ErrBudgetExceeded", point, err)
				}
			},
		},
		{
			name: "panic",
			spec: fault.Spec{Mode: fault.ModePanic},
			ctx:  func() (context.Context, context.CancelFunc) { return context.Background(), func() {} },
			check: func(t *testing.T, point string, err error) {
				var ie *engine.InternalError
				if !errors.As(err, &ie) {
					t.Errorf("point %s panic mode: %v (%T), want *engine.InternalError", point, err, err)
				}
			},
		},
		{
			name: "delay",
			// The deadline is generous enough for the matrix's clean
			// work (well under 500ms) but expires during the injected
			// sleep, so the post-delay poll must observe it.
			spec: fault.Spec{Mode: fault.ModeDelay, Delay: 1 * time.Second, Limit: 1},
			ctx: func() (context.Context, context.CancelFunc) {
				return context.WithTimeout(context.Background(), 500*time.Millisecond)
			},
			check: func(t *testing.T, point string, err error) {
				if !errors.Is(err, context.DeadlineExceeded) {
					t.Errorf("point %s delay mode: %v, want context.DeadlineExceeded", point, err)
				}
			},
		},
	}

	for _, point := range points {
		point := point
		t.Run(point, func(t *testing.T) {
			for _, m := range modes {
				base := runtime.NumGoroutine()
				if err := fault.Arm(point, m.spec); err != nil {
					t.Fatal(err)
				}
				ctx, cancel := m.ctx()
				err := runAll(ctx, db)
				cancel()
				if err == nil {
					t.Fatalf("mode %s: no step failed with %s armed", m.name, point)
				}
				m.check(t, point, err)
				if _, fires := fault.Hits(point); fires == 0 {
					t.Errorf("mode %s: point %s never fired — matrix lost coverage", m.name, point)
				}
				if n := settle(base); n > base {
					t.Errorf("mode %s: goroutines leaked (%d before, %d after)", m.name, base, n)
				}
				fault.Disarm(point)
			}

			// Fault cleared: verdicts and results intact.
			fault.Reset()
			after, err := db.Analyze(qDistinct)
			if err != nil {
				t.Fatalf("post-fault Analyze: %v", err)
			}
			if after.Unique != verdict.Unique || after.DistinctRedundant != verdict.DistinctRedundant {
				t.Fatalf("verdict changed after the fault: %+v, want %+v", after, verdict)
			}
			for _, q := range matrixQueries {
				rows, err := db.Query(q)
				if err != nil {
					t.Fatalf("post-fault %q: %v", q, err)
				}
				if !reflect.DeepEqual(rows.Data, baseline[q]) {
					t.Fatalf("post-fault %q: results differ from baseline", q)
				}
			}
			if err := runAll(context.Background(), db); err != nil {
				t.Fatalf("post-fault runAll: %v", err)
			}
		})
	}
}

// TestInPlaceScanFilterFaults pins the lifecycle of the in-place scan
// filter — a pushed-down predicate on a full scan, which reads the
// table's rows where they lie: cancellation, the budget, injected
// errors and contained panics at engine.scan and engine.filter all
// still reach it.
func TestInPlaceScanFilterFaults(t *testing.T) {
	if !fault.Enabled() {
		t.Fatal("requires -tags fault")
	}
	// CITY is not indexed: Scan(S) + Filter(S.CITY = 'city-1') keeps 72
	// of 500 rows, projects them and sorts them for DISTINCT.
	const q = qDistinct
	fault.Reset()
	defer fault.Reset()
	db := matrixDB(t)
	want, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if want.Stats.RowsScanned != 500 {
		t.Fatalf("rows scanned = %d, want 500", want.Stats.RowsScanned)
	}
	// In place: the scan's 500 rows are not among the charges.
	if m := want.Stats.RowsMaterialized; m >= 500 {
		t.Fatalf("rows charged = %d: the scan copied the table", m)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if rows, err := db.QueryContext(ctx, q); !errors.Is(err, context.Canceled) || rows != nil {
		t.Errorf("cancelled: rows=%v err=%v, want nil and context.Canceled", rows, err)
	}

	// A budget below the table but above what the query keeps passes;
	// one below what the filter keeps fails typed.
	if _, err := matrixDBWith(t, uniqopt.Options{MaxRows: 300}).Query(q); err != nil {
		t.Errorf("MaxRows 300 (table 500, kept 72): %v", err)
	}
	rows, err := matrixDBWith(t, uniqopt.Options{MaxRows: 50}).Query(q)
	var be *uniqopt.BudgetError
	if !errors.As(err, &be) || be.Resource != "rows" || rows != nil {
		t.Errorf("MaxRows 50: rows=%v err=%v, want a rows *BudgetError", rows, err)
	}

	for _, point := range []string{engine.FaultScan, engine.FaultFilter} {
		if err := fault.Arm(point, fault.Spec{Mode: fault.ModeError}); err != nil {
			t.Fatal(err)
		}
		if rows, err := db.Query(q); !errors.Is(err, fault.ErrInjected) || rows != nil {
			t.Errorf("%s error: rows=%v err=%v, want ErrInjected", point, rows, err)
		}
		fault.Disarm(point)
		if err := fault.Arm(point, fault.Spec{Mode: fault.ModePanic}); err != nil {
			t.Fatal(err)
		}
		var ie *engine.InternalError
		if rows, err := db.Query(q); !errors.As(err, &ie) || rows != nil {
			t.Errorf("%s panic: rows=%v err=%v, want *engine.InternalError", point, rows, err)
		}
		if _, fires := fault.Hits(point); fires == 0 {
			t.Errorf("%s never fired on the in-place path", point)
		}
		fault.Disarm(point)
	}

	got, err := db.Query(q)
	if err != nil || !reflect.DeepEqual(got.Data, want.Data) {
		t.Errorf("after the faults cleared: err=%v, results identical=%v", err, err == nil && reflect.DeepEqual(got.Data, want.Data))
	}
}

// TestStatementCacheHitFaults pins the statement cache against the
// lifecycle: a cancellation, a budget failure, an injected error and a
// contained panic that strike while a cached statement is executing
// leave the shared entry untouched — each faulted call was a hit, the
// next call of the shape (with other literals) is still a hit, nothing
// recompiles, and its rows and rewritten text are its own.
func TestStatementCacheHitFaults(t *testing.T) {
	if !fault.Enabled() {
		t.Fatal("requires -tags fault")
	}
	fault.Reset()
	defer fault.Reset()
	db := matrixDB(t)
	shape := func(city int) string {
		return fmt.Sprintf(`SELECT DISTINCT S.SNO, S.CITY FROM S WHERE S.CITY = 'city-%d' AND S.SNO < 400`, city)
	}
	if _, err := db.Query(shape(0)); err != nil { // compile once
		t.Fatal(err)
	}
	h0, m0 := db.PlanCacheCounters()
	calls := int64(0)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	calls++
	if rows, err := db.QueryContext(ctx, shape(1)); !errors.Is(err, context.Canceled) || rows != nil {
		t.Errorf("cancelled hit: rows=%v err=%v", rows, err)
	}
	calls++
	rows, err := db.View(uniqopt.Options{MaxRows: 10}).Query(shape(2))
	var be *uniqopt.BudgetError
	if !errors.As(err, &be) || rows != nil {
		t.Errorf("over-budget hit: rows=%v err=%v, want a *BudgetError", rows, err)
	}
	for _, spec := range []fault.Spec{{Mode: fault.ModeError}, {Mode: fault.ModePanic}} {
		if err := fault.Arm(engine.FaultFilter, spec); err != nil {
			t.Fatal(err)
		}
		calls++
		rows, err := db.Query(shape(3))
		var ie *engine.InternalError
		if rows != nil || !(errors.Is(err, fault.ErrInjected) || errors.As(err, &ie)) {
			t.Errorf("%v at engine.filter during a hit: rows=%v err=%v", spec.Mode, rows, err)
		}
		fault.Disarm(engine.FaultFilter)
	}

	for city := 4; city < 7; city++ {
		calls++
		rows, err := db.Query(shape(city))
		if err != nil {
			t.Fatalf("after the faults: %v", err)
		}
		want := fmt.Sprintf("S.CITY = 'city-%d'", city)
		if len(rows.Data) == 0 || len(rows.Rewrites) != 1 || !strings.Contains(rows.Rewrites[0].After, want) {
			t.Errorf("after the faults, city %d: %d rows, rewrites %+v", city, len(rows.Data), rows.Rewrites)
		}
		for _, row := range rows.Data {
			if row[1] != fmt.Sprintf("city-%d", city) {
				t.Fatalf("city %d returned %v", city, row)
			}
		}
	}
	if h1, m1 := db.PlanCacheCounters(); h1-h0 != calls || m1 != m0 {
		t.Errorf("%d calls of a cached shape: %d hits, %d compiles", calls, h1-h0, m1-m0)
	}
}
