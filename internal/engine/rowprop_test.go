package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"

	"uniqopt/internal/catalog"
	"uniqopt/internal/eval"
	"uniqopt/internal/sql/ast"
	"uniqopt/internal/storage"
	"uniqopt/internal/value"
)

// Tests that what an operator allocates and charges follows the rows
// it touches: arena slab growth, hash-table sizing, the in-place scan
// filter, and the allocation-free Stats merge.

// TestRowArenaRowsNeverAlias: every row an arena hands out is a
// full-capacity subslice of storage no other row shares, across slab
// boundaries and at every batch size — so a consumer that appends to a
// row reallocates instead of writing into its neighbour.
func TestRowArenaRowsNeverAlias(t *testing.T) {
	for _, bs := range []int{1, 3, DefaultBatchSize} {
		for _, width := range []int{1, 2, 5} {
			withBatchSize(t, bs)
			a := rowArena{width: width}
			// Enough rows to cross the 4, 8, 16, … slab boundaries and,
			// at small batch sizes, many capped slabs.
			const n = 100
			rows := make([]value.Row, n)
			for i := range rows {
				rows[i] = a.next()
				if len(rows[i]) != width || cap(rows[i]) != width {
					t.Fatalf("bs=%d width=%d row %d: len=%d cap=%d, want both %d",
						bs, width, i, len(rows[i]), cap(rows[i]), width)
				}
				for c := range rows[i] {
					rows[i][c] = value.Int(int64(i*10 + c))
				}
			}
			for i := range rows {
				// Must not land in row i+1's storage.
				_ = append(rows[i], value.Int(-1))
			}
			for i, row := range rows {
				for c, v := range row {
					if v.AsInt() != int64(i*10+c) {
						t.Fatalf("bs=%d width=%d: row %d col %d = %s: rows alias", bs, width, i, c, v)
					}
				}
			}
		}
	}
}

// TestRowArenaSlabsGrowWithOutput pins the growth rule: the first slab
// holds a few rows, each later slab doubles, and none exceeds
// BatchSize() rows.
func TestRowArenaSlabsGrowWithOutput(t *testing.T) {
	withBatchSize(t, 16)
	a := rowArena{width: 3}
	var slabs []int
	for i := 0; i < 60; i++ {
		before := a.rows
		fresh := len(a.buf) < a.width
		a.next()
		if fresh {
			slabs = append(slabs, a.rows)
		} else if a.rows != before {
			t.Fatalf("row %d: slab size changed mid-slab", i)
		}
	}
	if got, want := fmt.Sprint(slabs), "[4 8 16 16 16]"; got != want {
		t.Fatalf("slab sizes %s, want %s", got, want)
	}
	withBatchSize(t, 1)
	b := rowArena{width: 3}
	b.next()
	b.next()
	if b.rows != 1 {
		t.Fatalf("batch size 1: slab of %d rows", b.rows)
	}
}

// bytesPerRun reports the mean bytes allocated by one call of f. It
// reads the allocator's counters, not the clock, so it repeats.
func bytesPerRun(runs int, f func()) uint64 {
	f() // warm lazily initialized state
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// TestSmallHashJoinAllocatesForItsRows is the allocation regression
// test for result-sized arenas and hinted hash tables: a 1-row × 10-row
// join emits one 4-column row and must not pay for a batch of them.
// (The slab alone was 4 columns × 1,024 rows × 40 B = 160 KB.)
func TestSmallHashJoinAllocatesForItsRows(t *testing.T) {
	forceSerial(t)
	l := &Relation{Cols: []string{"L.K", "L.V"}, Rows: []value.Row{{value.Int(3), value.Int(30)}}}
	r := &Relation{Cols: []string{"R.K", "R.V"}}
	for i := 0; i < 10; i++ {
		r.Rows = append(r.Rows, value.Row{value.Int(int64(i)), value.Int(int64(i * 100))})
	}
	const limit = 8 << 10
	mat := bytesPerRun(200, func() {
		out := okRel(HashJoin(ctx0, &Stats{}, l, r, []string{"L.K"}, []string{"R.K"}))
		if out.Len() != 1 {
			t.Fatalf("join rows = %d, want 1", out.Len())
		}
	})
	if mat > limit {
		t.Errorf("materializing 1×10 HashJoin allocates %d B per run, want < %d", mat, limit)
	}
	str := bytesPerRun(200, func() {
		st := &Stats{}
		it, err := NewHashJoinIter(st, NewRelationIter(st, l), NewRelationIter(st, r),
			[]string{"L.K"}, []string{"R.K"})
		if err != nil {
			t.Fatal(err)
		}
		if out := mustDrain(t, st, it); out.Len() != 1 {
			t.Fatalf("streaming join rows = %d, want 1", out.Len())
		}
	})
	if str > limit {
		t.Errorf("streaming 1×10 HashJoin allocates %d B per run, want < %d", str, limit)
	}
}

// TestRowTableSizing: a hinted table is sized by its hint, an unhinted
// one allocates nothing until its first insert and then starts from the
// floor; lookups and chain order are unaffected either way.
func TestRowTableSizing(t *testing.T) {
	if got := len(newRowTable(1).slots); got != 8 {
		t.Errorf("hint 1: %d slots, want 8", got)
	}
	if got := len(newRowTable(10).slots); got != 16 {
		t.Errorf("hint 10: %d slots, want 16", got)
	}
	if got := len(newRowTable(3000).slots); got != 4096 {
		t.Errorf("hint 3000: %d slots, want 4096", got)
	}
	u := newRowTable(0)
	if u.slots != nil || u.entries != nil {
		t.Error("unhinted table allocated before its first insert")
	}
	if u.find(42) != rtNone {
		t.Error("find on an empty table found something")
	}
	u.insert(42, value.Row{value.Int(1)})
	if len(u.slots) != rtFloorSlots {
		t.Errorf("unhinted table starts from %d slots, want %d", len(u.slots), rtFloorSlots)
	}
	// A hint that was too low only costs regrowth.
	low := newRowTable(1)
	for i := 0; i < 500; i++ {
		low.insert(uint64(i%50), value.Row{value.Int(int64(i))})
	}
	for h := 0; h < 50; h++ {
		want := int64(h)
		for e := low.find(uint64(h)); e != rtNone; e = low.entries[e].next {
			if got := low.entries[e].row[0].AsInt(); got != want {
				t.Fatalf("hash %d: chain out of insertion order: %d, want %d", h, got, want)
			}
			want += 50
		}
		if want != int64(h)+500 {
			t.Fatalf("hash %d: chain lost rows", h)
		}
	}
}

func inPlaceTable(t *testing.T, rows int) *storage.Table {
	t.Helper()
	schema, err := catalog.NewTable("T", []catalog.Column{
		{Name: "A", Type: value.KindInt}, {Name: "B", Type: value.KindInt}})
	if err != nil {
		t.Fatal(err)
	}
	tbl := storage.NewTable(schema)
	for i := 0; i < rows; i++ {
		if err := tbl.Insert(value.Row{value.Int(int64(i)), value.Int(int64(i % 10))}); err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

// TestScanInPlaceFilterMatchesScanFilter: filtering the table's rows
// where they lie returns exactly what Scan + Filter returns — serial
// and parallel — counts the same rows scanned, and charges the
// governor for the rows kept, not for the table.
func TestScanInPlaceFilterMatchesScanFilter(t *testing.T) {
	const n, kept = 5000, 500
	tbl := inPlaceTable(t, n)
	pred := &ast.Compare{Op: ast.EqOp,
		L: &ast.ColumnRef{Qualifier: "X", Column: "B"}, R: &ast.HostVar{Name: "K"}}
	env := &eval.Env{Hosts: map[string]value.Value{"K": value.Int(7)}}

	for _, pool := range []struct {
		name               string
		workers, threshold int
	}{{"serial", 1, 1 << 30}, {"parallel", 4, 1}} {
		t.Run(pool.name, func(t *testing.T) {
			prevW, prevT := SetWorkers(pool.workers), SetParallelThreshold(pool.threshold)
			defer func() { SetWorkers(prevW); SetParallelThreshold(prevT) }()

			stC := &Stats{}
			want := okRel(Filter(ctx0, stC, okRel(Scan(ctx0, stC, tbl, "X")), pred, env))

			stP := &Stats{}
			gov := NewGovernor(kept, 0) // room for the kept rows only
			ctx := WithGovernor(context.Background(), gov)
			view, err := ScanInPlace(ctx, stP, tbl, "X")
			if err != nil {
				t.Fatal(err)
			}
			if view.Len() != n || cap(view.Rows) != n {
				t.Fatalf("view len=%d cap=%d, want both %d", view.Len(), cap(view.Rows), n)
			}
			got, err := Filter(ctx, stP, view, pred, env)
			if err != nil {
				t.Fatalf("in-place filter under a %d-row budget: %v", kept, err)
			}
			identicalRelations(t, want, got, "in-place scan filter")
			c, p := stC.Snapshot(), stP.Snapshot()
			if p.RowsScanned != n || p.RowsScanned != c.RowsScanned {
				t.Errorf("rows scanned %d (copying: %d), want %d", p.RowsScanned, c.RowsScanned, n)
			}
			if p.RowsMaterialized != kept || c.RowsMaterialized != n+kept {
				t.Errorf("rows charged: in place %d, copying %d; want %d and %d",
					p.RowsMaterialized, c.RowsMaterialized, kept, n+kept)
			}
			if (p.ParallelRuns > 0) != (pool.workers > 1) {
				t.Errorf("parallel runs = %d with %d workers", p.ParallelRuns, pool.workers)
			}

			// One row less of budget and the filter's own charge trips it.
			tight := WithGovernor(context.Background(), NewGovernor(kept-1, 0))
			view, err = ScanInPlace(tight, &Stats{}, tbl, "X")
			if err != nil {
				t.Fatal(err)
			}
			if _, err := Filter(tight, &Stats{}, view, pred, env); !errors.Is(err, ErrBudgetExceeded) {
				t.Errorf("in-place filter one row over budget: err = %v, want ErrBudgetExceeded", err)
			}
		})
	}

	// Cancellation reaches both halves.
	cctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ScanInPlace(cctx, &Stats{}, tbl, "X"); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled ScanInPlace: err = %v", err)
	}
	view := okRel(ScanInPlace(ctx0, &Stats{}, tbl, "X"))
	if _, err := Filter(cctx, &Stats{}, view, pred, env); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled in-place Filter: err = %v", err)
	}
	// The view cannot grow into the table's storage.
	grown := append(view.Rows, value.Row{value.Int(-1), value.Int(-1)})
	if tbl.Len() != n || &grown[0] == &tbl.Rows()[0] {
		t.Error("appending to the view reached the table's row slice")
	}
}

// TestStatsAddSnapshotDoNotAllocate: the field enumeration behind Add
// and Snapshot lives on the stack.
func TestStatsAddSnapshotDoNotAllocate(t *testing.T) {
	var s Stats
	o := Stats{RowsScanned: 3, WorkersUsed: 2, Batches: 1}
	var sink Stats
	if n := testing.AllocsPerRun(100, func() {
		s.Add(o)
		sink = s.Snapshot()
	}); n != 0 {
		t.Errorf("Add+Snapshot allocate %.0f times per call, want 0", n)
	}
	if sink.RowsScanned == 0 {
		t.Error("Snapshot lost the merged counters")
	}
}
