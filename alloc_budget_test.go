//go:build !poison

package uniqopt_test

import (
	"context"
	"runtime"
	"runtime/debug"
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
// hash tables, all carved from the DB's recycled frame — nor a copy of
// its answer, and what it pays is a constant for the call, pinned here,
// the same in count and bytes over four times the data. Example 2 runs a
// hash join into a hash table, the filter scan the batch filter, and
// the OR filter the row loop, which grows its output a row at a time.
func TestQueryFuncAllocs(t *testing.T) {
	cases := []struct {
		name, sql string
		hosts     map[string]any
		allocs    float64
	}{
		{"example2", workload.PaperQueries["example2"], nil, 5},
		{"filter_scan", `SELECT ALL P.SNO, P.PNO, P.OEM-PNO FROM PARTS P
			WHERE P.COLOR <> 'RED' AND P.PNO > :K AND P.OEM-PNO < :M`,
			map[string]any{"K": 3, "M": 1_000_000}, 8},
		{"or_filter", `SELECT ALL P.SNO, P.PNO FROM PARTS P WHERE P.COLOR = 'RED' OR P.PNO > :K`,
			map[string]any{"K": 3}, 8},
	}
	dbs := map[int]*uniqopt.DB{1: scaledGoldenDB(t, 1), 4: scaledGoldenDB(t, 4)}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			allocs, bytes, rows := map[int]float64{}, map[int]float64{}, map[int]int{}
			for scale, db := range dbs {
				query := func() {
					err := db.QueryFunc(context.Background(), c.sql, c.hosts, true,
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
