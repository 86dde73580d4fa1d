package uniqopt_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"uniqopt"
	"uniqopt/internal/engine"
	"uniqopt/internal/plan"
	"uniqopt/internal/workload"
)

// setStreamBatch scopes the engine batch size to one test (0 keeps
// the default).
func setStreamBatch(t *testing.T, n int) {
	t.Helper()
	if n == 0 {
		return
	}
	prev := engine.SetBatchSize(n)
	t.Cleanup(func() { engine.SetBatchSize(prev) })
}

// setStreamPool scopes the worker-pool configuration to one test.
func setStreamPool(t *testing.T, workers, threshold int) {
	t.Helper()
	prevW := engine.SetWorkers(workers)
	prevT := engine.SetParallelThreshold(threshold)
	t.Cleanup(func() {
		engine.SetWorkers(prevW)
		engine.SetParallelThreshold(prevT)
	})
}

// TestStreamingPaperExamples runs every paper example under
// materializing and streaming execution — serial and parallel, at
// batch sizes 1, 3, and the default — and requires byte-identical
// results (same columns, same rows, same order). This is the
// end-to-end equivalence guarantee: streaming is an execution
// strategy, never a semantics change.
func TestStreamingPaperExamples(t *testing.T) {
	type pool struct {
		name               string
		workers, threshold int
	}
	pools := []pool{{"serial", 1, 1 << 30}, {"parallel", 4, 1}}
	for _, pl := range pools {
		for _, bs := range []int{1, 3, 0} {
			label := fmt.Sprintf("%s/batch=%d", pl.name, bs)
			t.Run(label, func(t *testing.T) {
				setStreamPool(t, pl.workers, pl.threshold)
				setStreamBatch(t, bs)
				mat := goldenDBWith(t, uniqopt.Options{})
				str := goldenDBWith(t, uniqopt.Options{Streaming: true})
				for _, name := range paperQueryNames() {
					sql := workload.PaperQueries[name]
					want, err := mat.QueryWith(sql, goldenHosts, true)
					if err != nil {
						t.Fatalf("%s materializing: %v", name, err)
					}
					got, err := str.QueryWith(sql, goldenHosts, true)
					if err != nil {
						t.Fatalf("%s streaming: %v", name, err)
					}
					if !reflect.DeepEqual(want.Columns, got.Columns) {
						t.Errorf("%s: columns diverge: %v vs %v", name, want.Columns, got.Columns)
					}
					if !reflect.DeepEqual(want.Data, got.Data) {
						t.Errorf("%s: streaming result diverges from materializing (rows %d vs %d)",
							name, len(want.Data), len(got.Data))
					}
					if !reflect.DeepEqual(want.Plan, got.Plan) {
						t.Errorf("%s: plans diverge:\n%v\nvs\n%v", name, want.Plan, got.Plan)
					}
					if got.Stats.Batches == 0 {
						t.Errorf("%s: streaming execution recorded no batches", name)
					}
					if want.Stats.Batches != 0 {
						t.Errorf("%s: materializing execution recorded %d batches", name, want.Stats.Batches)
					}
				}
			})
		}
	}
}

// streamBudgetDB builds a DB where the outer table is far larger than
// the memory budget the tests impose but the interesting results are
// small: S carries `rows` rows, P only 50.
func streamBudgetDB(t *testing.T, rows int, opts uniqopt.Options) *uniqopt.DB {
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
	for i := 0; i < rows; i++ {
		if err := db.Insert("S", i, fmt.Sprintf("city-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 50; i++ {
		if err := db.Insert("P", i, i); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// TestStreamingBudget is the satellite regression test for streaming
// memory behavior: a join whose outer scan alone exceeds MemBudget
// fails under materializing execution but streams to completion under
// streaming execution, because only the (tiny) build side and the
// in-flight batches are ever resident. A blocking operator over the
// same oversized input still fails fast either way.
func TestStreamingBudget(t *testing.T) {
	const rows = 40_000
	// Enough for a few in-flight batches (~114KB each at the default
	// batch size), far below the ~4.5MB the S scan would materialize.
	const budget = 256 * 1024
	join := `SELECT S.SNO, S.CITY FROM S, P WHERE S.SNO = P.SNO AND P.PNO = 7`

	mat := streamBudgetDB(t, rows, uniqopt.Options{MemBudget: budget})
	if _, err := mat.Query(join); !errors.Is(err, uniqopt.ErrBudgetExceeded) {
		t.Fatalf("materializing join: err = %v, want ErrBudgetExceeded", err)
	}

	str := streamBudgetDB(t, rows, uniqopt.Options{MemBudget: budget, Streaming: true})
	res, err := str.Query(join)
	if err != nil {
		t.Fatalf("streaming join under budget: %v", err)
	}
	if len(res.Data) != 1 || res.Data[0][0] != int64(7) {
		t.Fatalf("streaming join result = %v, want the single row for SNO 7", res.Data)
	}
	if res.Stats.Batches == 0 {
		t.Fatal("streaming join recorded no batches")
	}

	// Blocking state is still charged as it accrues: a hash-distinct
	// over 40k unique rows cannot fit the budget and must fail fast,
	// not stream partial results.
	strDistinct := streamBudgetDB(t, rows, uniqopt.Options{
		MemBudget: budget, Streaming: true, HashDistinct: true})
	rows2, err := strDistinct.QueryBaseline(`SELECT DISTINCT S.CITY FROM S`)
	if !errors.Is(err, uniqopt.ErrBudgetExceeded) {
		t.Fatalf("streaming blocking distinct: err = %v, want ErrBudgetExceeded", err)
	}
	if rows2 != nil {
		t.Fatal("partial Rows escaped a blown budget under streaming")
	}
	var be *uniqopt.BudgetError
	if !errors.As(err, &be) || be.Resource != "memory" {
		t.Fatalf("err = %v, want a memory *BudgetError", err)
	}
}

// TestStreamingDistinctShortCircuit checks the zero-cost DISTINCT
// path: when the uniqueness analysis proves DISTINCT redundant, the
// rewrite removes the node before planning, so the streaming pipeline
// is built without any duplicate-elimination stage at all — no hash
// table, no sort buffer, nothing to short-circuit at run time.
func TestStreamingDistinctShortCircuit(t *testing.T) {
	db := goldenDBWith(t, uniqopt.Options{Streaming: true, HashDistinct: true})
	sql := workload.PaperQueries["example1"]

	opt, err := db.QueryWith(sql, goldenHosts, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(opt.Rewrites) == 0 {
		t.Fatal("example1 applied no rewrites")
	}
	for _, line := range opt.Plan {
		if strings.Contains(line, "Distinct") {
			t.Errorf("optimized streaming plan still carries a distinct stage: %q", line)
		}
	}

	base, err := db.QueryWith(sql, goldenHosts, false)
	if err != nil {
		t.Fatal(err)
	}
	hasDistinct := false
	for _, line := range base.Plan {
		if strings.Contains(line, "DistinctHash") {
			hasDistinct = true
		}
	}
	if !hasDistinct {
		t.Fatal("baseline streaming plan lost its DistinctHash stage")
	}
	// Same rows either way (the rewrite is semantics-preserving, and
	// the paper data has no duplicates for DISTINCT to remove); order
	// may differ, so compare canonicalized renderings.
	if canonRows(base.Data) != canonRows(opt.Data) {
		t.Fatalf("baseline and optimized streaming results diverge:\nbaseline %d rows vs optimized %d rows",
			len(base.Data), len(opt.Data))
	}
}

// canonRows renders rows order-independently for multiset comparison.
func canonRows(data [][]any) string {
	lines := make([]string, len(data))
	for i, row := range data {
		lines[i] = fmt.Sprint(row)
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// TestInPlaceScanFilterIdentity extends the byte-identity sweep to the
// in-place scan filter: a pushed-down predicate on a full scan is
// evaluated over the table's own row slice under materializing
// execution, and must return what serial, parallel and streaming
// execution return at every batch size, render the same EXPLAIN ANALYZE
// tree (Scan out=N, Filter in=N out=k), count the same rows scanned —
// and charge the governor for less than the table.
func TestInPlaceScanFilterIdentity(t *testing.T) {
	// COLOR and PNO are not leading index columns: Scan + Filter.
	const sql = `SELECT ALL P.SNO, P.PNO, P.PNAME FROM PARTS P WHERE P.COLOR = 'RED' AND P.PNO > :PART-NO`
	setStreamPool(t, 1, 1<<30)
	ref, err := goldenDBWith(t, uniqopt.Options{}).QueryWith(sql, goldenHosts, true)
	if err != nil {
		t.Fatal(err)
	}
	tableRows := ref.Stats.RowsScanned
	if len(ref.Data) == 0 || int64(len(ref.Data)) >= tableRows {
		t.Fatalf("filter kept %d of %d rows; the test needs a selective predicate", len(ref.Data), tableRows)
	}
	if ref.Stats.RowsMaterialized >= tableRows {
		t.Errorf("materializing run charged %d rows for a %d-row table: the scan was copied",
			ref.Stats.RowsMaterialized, tableRows)
	}
	var refTree string
	type pool struct {
		name               string
		workers, threshold int
	}
	for _, pl := range []pool{{"serial", 1, 1 << 30}, {"parallel", 4, 1}} {
		for _, streaming := range []bool{false, true} {
			for _, bs := range []int{1, 3, 0} {
				label := fmt.Sprintf("%s/streaming=%v/batch=%d", pl.name, streaming, bs)
				t.Run(label, func(t *testing.T) {
					setStreamPool(t, pl.workers, pl.threshold)
					setStreamBatch(t, bs)
					db := goldenDBWith(t, uniqopt.Options{Streaming: streaming})
					got, err := db.QueryWith(sql, goldenHosts, true)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(ref.Columns, got.Columns) || !reflect.DeepEqual(ref.Data, got.Data) {
						t.Errorf("result diverges from the serial materializing run (%d vs %d rows)",
							len(got.Data), len(ref.Data))
					}
					if got.Stats.RowsScanned != tableRows {
						t.Errorf("rows scanned = %d, want %d", got.Stats.RowsScanned, tableRows)
					}
					e, err := db.ExplainWith(context.Background(), sql, goldenHosts, true, true)
					if err != nil {
						t.Fatal(err)
					}
					tree := plan.ScrubVolatile(e.String())
					if refTree == "" {
						refTree = tree
						for _, want := range []string{
							fmt.Sprintf("Scan(PARTS as P) [in=%d out=%d time=?]", tableRows, tableRows),
							fmt.Sprintf("[in=%d out=%d time=?]\n    Scan(", tableRows, len(ref.Data)),
						} {
							if !strings.Contains(tree, want) {
								t.Errorf("EXPLAIN ANALYZE lacks %q:\n%s", want, tree)
							}
						}
					} else if tree != refTree {
						t.Errorf("EXPLAIN ANALYZE diverges:\n--- first leg\n%s\n--- this leg\n%s", refTree, tree)
					}
				})
			}
		}
	}
}
