//go:build !poison

package uniqopt_test

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"uniqopt"
	"uniqopt/internal/value"
	"uniqopt/internal/workload"
)

// scaledGoldenDB is the golden dataset with scale times the suppliers,
// and their parts and agents.
func scaledGoldenDB(t *testing.T, scale int) *uniqopt.DB {
	t.Helper()
	cfg := workload.DefaultConfig()
	cfg.Suppliers *= scale
	src, err := workload.NewDB(cfg)
	if err != nil {
		t.Fatal(err)
	}
	db := uniqopt.Open()
	for _, ddl := range workload.BenchDDL {
		if err := db.Exec(ddl); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range []string{"SUPPLIER", "PARTS", "AGENTS"} {
		tbl := src.MustTable(name)
		for i := 0; i < tbl.Len(); i++ {
			if err := db.InsertRow(name, tbl.Row(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	return db
}

// TestQueryAllocsDoNotGrowWithRows is the allocation budget of a warm
// query: the pipeline allocates from the DB's recycled scratch, so what
// one execution allocates is its answer — a handful of slices, whatever
// the rows — plus a constant for the call. The same statement over four
// times the data must cost the same number of allocations. Example 2
// keeps its DISTINCT (a hash join into a hash table); the filter scan
// runs the batch filter over every part. Counts, not clocks: the
// collector is held off so that nothing but the query allocates.
func TestQueryAllocsDoNotGrowWithRows(t *testing.T) {
	cases := []struct {
		name, sql string
		hosts     map[string]any
	}{
		{"example2", workload.PaperQueries["example2"], nil},
		{"filter_scan", `SELECT ALL P.SNO, P.PNO, P.OEM-PNO FROM PARTS P
			WHERE P.COLOR <> 'RED' AND P.PNO > :K AND P.OEM-PNO < :M`,
			map[string]any{"K": 3, "M": 1_000_000}},
	}
	dbs := map[int]*uniqopt.DB{1: scaledGoldenDB(t, 1), 4: scaledGoldenDB(t, 4)}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			allocs, rows := map[int]float64{}, map[int]int{}
			for scale, db := range dbs {
				query := func() {
					res, err := db.QueryWithContext(context.Background(), c.sql, c.hosts, true)
					if err != nil {
						t.Fatal(err)
					}
					rows[scale] = len(res.Data)
				}
				for i := 0; i < 3; i++ { // compile, then let the scratch settle
					query()
				}
				allocs[scale] = testing.AllocsPerRun(50, query)
			}
			t.Logf("%v allocations per execution for %d rows, %v for %d", allocs[1], rows[1], allocs[4], rows[4])
			if rows[4] < 3*rows[1] {
				t.Fatalf("%d rows at 4x the data, %d at 1x: the statement does not scale with its input", rows[4], rows[1])
			}
			if allocs[4] != allocs[1] {
				t.Errorf("%v allocations per execution at 4x the data, %v at 1x: the pipeline allocates per row", allocs[4], allocs[1])
			}
		})
	}
}

// TestQueryFuncAllocs is the allocation budget of a warm QueryFunc, the
// daemon's path: the answer is read in place, so an execution allocates
// neither its pipeline — iterators, governor, result, batches, rows,
// hash tables, armed kernels, all carved from the DB's recycled frame —
// nor its binding vector or shape, which the frame holds too, nor a copy
// of its answer. What it pays is pinned here, the same in count and bytes
// over four times the data: nothing for a statement whose predicates are
// kernels, and for an OR, which runs the row loop, the closures of the OR
// and of its two leaves. Example 2 runs a hash join into a hash table,
// the filter scan the batch filter, and Example 9 unrewritten the sort-
// merge INTERSECT, whose collected operands, sort buffers and merged
// output grow in the scratch too.
func TestQueryFuncAllocs(t *testing.T) {
	cases := []struct {
		name, sql string
		hosts     map[string]any
		optimize  bool
		allocs    float64
	}{
		{"example2", workload.PaperQueries["example2"], nil, true, 0},
		{"filter_scan", `SELECT ALL P.SNO, P.PNO, P.OEM-PNO FROM PARTS P
			WHERE P.COLOR <> 'RED' AND P.PNO > :K AND P.OEM-PNO < :M`,
			map[string]any{"K": 3, "M": 1_000_000}, true, 0},
		{"or_filter", `SELECT ALL P.SNO, P.PNO FROM PARTS P WHERE P.COLOR = 'RED' OR P.PNO > :K`,
			map[string]any{"K": 3}, true, 3},
		// The paper's baseline for Theorem 3: a sort-merge INTERSECT,
		// whose operands are collected, sorted and merged in the scratch;
		// its OR is three closures, as above.
		{"example9_baseline", workload.PaperQueries["example9"], nil, false, 3},
	}
	dbs := map[int]*uniqopt.DB{1: scaledGoldenDB(t, 1), 4: scaledGoldenDB(t, 4)}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			allocs, bytes, rows := map[int]float64{}, map[int]float64{}, map[int]int{}
			for scale, db := range dbs {
				query := func() {
					err := db.QueryFunc(context.Background(), c.sql, c.hosts, c.optimize,
						func(_ []string, data []value.Row, _ []uniqopt.RewriteInfo) { rows[scale] = len(data) })
					if err != nil {
						t.Fatal(err)
					}
				}
				for i := 0; i < 3; i++ { // compile, then let the frame settle
					query()
				}
				allocs[scale], bytes[scale] = allocsPerRun(50, query)
			}
			t.Logf("%v allocations (%v bytes) per execution for %d rows, %v (%v bytes) for %d",
				allocs[1], bytes[1], rows[1], allocs[4], bytes[4], rows[4])
			if rows[4] < 3*rows[1] {
				t.Fatalf("%d rows at 4x the data, %d at 1x: the statement does not scale with its input", rows[4], rows[1])
			}
			if allocs[4] != allocs[1] || bytes[4] != bytes[1] {
				t.Errorf("%v allocations (%v bytes) at 4x the data, %v (%v bytes) at 1x: the execution allocates per row",
					allocs[4], bytes[4], allocs[1], bytes[1])
			}
			limit := c.allocs
			if raceBuild {
				limit++
			}
			if allocs[1] > limit {
				t.Errorf("%v allocations per execution, want at most %v", allocs[1], limit)
			}
		})
	}
}

// allocsPerRun is testing.AllocsPerRun that also reports the bytes: the
// mean allocations and bytes of runs calls of f, after one warm-up call.
func allocsPerRun(runs int, f func()) (allocs, bytes float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs), float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestWarmExplainReachesNoAnalyzer: a plan-only EXPLAIN of a cached
// statement renders the verdict its compiled statement carries, so what
// it allocates does not grow with the WHERE clause Algorithm 1 would
// have to normalise — the same at one conjunct and at eight, where an
// EXPLAIN that re-ran the analyzer paid for every conjunct (85 and 130
// allocations).
func TestWarmExplainReachesNoAnalyzer(t *testing.T) {
	db := shapeDB(t, uniqopt.Options{})
	allocs := map[int]float64{}
	for _, n := range []int{1, 8} {
		conj := make([]string, n)
		hosts := map[string]any{}
		for i := range conj {
			conj[i] = fmt.Sprintf("S.BUDGET > :B%d", i)
			hosts[fmt.Sprintf("B%d", i)] = i
		}
		sql := "SELECT DISTINCT S.SNO, S.SNAME FROM SUPPLIER S WHERE " + strings.Join(conj, " AND ")
		explain := func() {
			e, err := db.ExplainWith(context.Background(), sql, hosts, true, false)
			if err != nil || len(e.Trace) == 0 || len(e.Rewrites) != 1 {
				t.Fatalf("%s: %v, %v", sql, e, err)
			}
		}
		explain()
		allocs[n] = testing.AllocsPerRun(50, explain)
		// The race build's sync.Pool drops a quarter of what is put back
		// at random (fmt's printers among it), and each drop costs an
		// allocation later: one EXPLAIN there reads anywhere from 29 to
		// 46, and the mean of 50 about 35, at either conjunct count. Its
		// figure is the least of 100 single calls, which reaches the
		// floor (29 or 30) but for a chance below one in a million.
		for round := 0; raceBuild && round < 100; round++ {
			allocs[n] = min(allocs[n], testing.AllocsPerRun(1, explain))
		}
	}
	t.Logf("warm plan-only EXPLAIN: %v allocations at 1 conjunct, %v at 8", allocs[1], allocs[8])
	slack := 0.0
	if raceBuild { // the race detector adds one here or there
		slack = 1
	}
	if math.Abs(allocs[8]-allocs[1]) > slack {
		t.Errorf("warm plan-only EXPLAIN: %v allocations at 8 conjuncts, %v at 1: it analyzes the statement again", allocs[8], allocs[1])
	}
}
