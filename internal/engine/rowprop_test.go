package engine

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"testing"

	"uniqopt/internal/catalog"
	"uniqopt/internal/eval"
	"uniqopt/internal/sql/ast"
	"uniqopt/internal/storage"
	"uniqopt/internal/value"
)

// Tests that what an operator allocates and charges follows the rows
// it touches: scratch rows and chunk reuse, hash-table sizing, the
// in-place scan filter, and the allocation-free Stats merge.

// TestScratchRowsNeverAlias: every row a scratch hands out is a
// full-capacity subslice of storage no other row shares, across chunk
// boundaries and across a Reset — so a consumer that appends to a row
// reallocates instead of writing into its neighbour.
func TestScratchRowsNeverAlias(t *testing.T) {
	for _, width := range []int{1, 2, 5} {
		sc := NewScratch()
		for round := 0; round < 2; round++ {
			// Enough rows to cross several chunk boundaries.
			const n = 100
			rows := make([]value.Row, n)
			for i := range rows {
				rows[i] = sc.cells(width)
				if len(rows[i]) != width || cap(rows[i]) != width {
					t.Fatalf("width=%d row %d: len=%d cap=%d, want both %d",
						width, i, len(rows[i]), cap(rows[i]), width)
				}
				for c := range rows[i] {
					if !rows[i][c].IsNull() {
						t.Fatalf("round %d width=%d row %d: a fresh cell reads %s", round, width, i, rows[i][c])
					}
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
						t.Fatalf("width=%d: row %d col %d = %s: rows alias", width, i, c, v)
					}
				}
			}
			if Poisoned {
				return // a poisoned Reset reuses nothing
			}
			sc.Reset()
		}
	}
}

// TestScratchReuseAndRetention pins the chunk policy: a first chunk of
// scratchFirst elements (or the request), doubling on overflow; after a
// Reset one home chunk holds what the execution took, so repeating it
// allocates nothing; and no home is larger than scratchRetain bytes, but
// an execution that spills past it keeps the home it has.
func TestScratchReuseAndRetention(t *testing.T) {
	if Poisoned {
		t.Skip("a poisoned Reset recycles nothing")
	}
	sc := NewScratch()
	sc.cells(3)
	if got := len(sc.values.home); got != scratchFirst {
		t.Fatalf("first chunk holds %d cells, want %d", got, scratchFirst)
	}
	exec := func() {
		for i := 0; i < 100; i++ {
			sc.cells(3)
		}
		sc.push(sc.batch(0), nil)
	}
	exec()
	if n := len(sc.values.chunk) / scratchFirst; !sc.values.spilled || n*scratchFirst != len(sc.values.chunk) || n&(n-1) != 0 {
		t.Fatalf("300 more cells: spilled=%v, current chunk %d cells; want doubling from %d",
			sc.values.spilled, len(sc.values.chunk), scratchFirst)
	}
	sc.Reset()
	exec()
	if sc.values.spilled || len(sc.values.home) != 303 {
		t.Fatalf("after Reset: spilled=%v, home %d cells; want one home of the 303 taken", sc.values.spilled, len(sc.values.home))
	}
	sc.Reset()
	if allocs := testing.AllocsPerRun(20, func() { exec(); sc.Reset() }); allocs != 0 {
		t.Errorf("a repeated execution allocates %.0f times, want 0", allocs)
	}

	big := NewScratch()
	keep := scratchRetain / int(reflect.TypeFor[value.Value]().Size())
	heavy := func() {
		for i := 0; i < 3; i++ {
			big.cells(keep / 2)
		}
		big.cells(2 * keep)
	}
	heavy()
	big.Reset()
	if big.values.home != nil || big.values.size != keep {
		t.Fatalf("after %d cells the next home is %d cells, want the cap, %d", 3*(keep/2)+2*keep, big.values.size, keep)
	}
	heavy()
	home := &big.values.home[0]
	big.Reset()
	if len(big.values.home) != keep || &big.values.home[0] != home {
		t.Errorf("an execution past the cap dropped its %d-cell home (now %d cells)", keep, len(big.values.home))
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
	l := &Relation{Cols: []string{"L.K", "L.V"}, Rows: []value.Row{{value.Int(3), value.Int(30)}}}
	r := &Relation{Cols: []string{"R.K", "R.V"}}
	for i := 0; i < 10; i++ {
		r.Rows = append(r.Rows, value.Row{value.Int(int64(i)), value.Int(int64(i * 100))})
	}
	const limit = 8 << 10
	want := joinOracle(&Stats{}, l, r, "L.K", "R.K")
	str := bytesPerRun(200, func() {
		st := &Stats{}
		out := hashJoin(st, l, r, []string{"L.K"}, []string{"R.K"})
		if out.Len() != 1 {
			t.Fatalf("join rows = %d, want 1", out.Len())
		}
		identicalRelations(t, want, out, "1×10 hash join")
	})
	if str > limit {
		t.Errorf("1×10 hash join allocates %d B per run, want < %d", str, limit)
	}
}

// TestFilterSizesOutputFromLastEmission: a filter starts each output
// batch at the length of the batch it emitted last, so after its first
// batch it pays one allocation per batch instead of one per doubling.
// Every tenth of 16 × 1,024 rows qualifies: the first batch is full
// after ten input batches, and the other 615 rows come at the end.
func TestFilterSizesOutputFromLastEmission(t *testing.T) {
	if Poisoned {
		t.Skip("a poisoned scratch also records each chunk it retires, one allocation more")
	}
	withBatchSize(t, DefaultBatchSize)
	const n = 16 * DefaultBatchSize
	rel := &Relation{Cols: []string{"T.K", "T.M"}}
	for i := 0; i < n; i++ {
		rel.Rows = append(rel.Rows, value.Row{value.Int(int64(i)), value.Int(int64(i % 10))})
	}
	pred := &ast.Compare{Op: ast.EqOp,
		L: &ast.ColumnRef{Qualifier: "T", Column: "M"}, R: &ast.IntLit{V: 0}}
	const runs = 20
	its := make([]Iterator, runs+1) // AllocsPerRun warms up with one extra call
	for i := range its {
		st := &Stats{}
		its[i] = NewFilterIter(st, NewRelationIter(st, rel), eval.Prepare(pred, rel.Cols, nil), &eval.Env{})
		if b, err := its[i].Next(ctx0); err != nil || len(b) != DefaultBatchSize {
			t.Fatalf("first batch: %d rows, err = %v", len(b), err)
		}
	}
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		b, err := its[next].Next(ctx0)
		next++
		if err != nil || len(b) != (n+9)/10-DefaultBatchSize {
			t.Fatalf("second batch: %d rows, err = %v", len(b), err)
		}
	})
	if allocs != 1 {
		t.Errorf("the second batch cost %.0f allocations, want 1", allocs)
	}
}

// TestRowTableSizing: a table is sized by the rows it is told to make
// room for — exactly, in one step, on top of what it holds — and an
// empty one allocates nothing until its first insert or reserve, then
// starts from the floor; lookups and chain order are unaffected either
// way.
func TestRowTableSizing(t *testing.T) {
	for rows, slots := range map[int]int{1: 8, 10: 16, 3000: 4096} {
		sc := NewScratch()
		tbl := &rowTable{}
		tbl.reserve(sc, rows)
		if len(tbl.slots) != slots || cap(tbl.entries) != rows {
			t.Errorf("reserve(%d): %d slots and room for %d entries, want %d and %d",
				rows, len(tbl.slots), cap(tbl.entries), slots, rows)
		}
		for i := 0; i < rows; i++ {
			tbl.insert(sc, uint64(i), value.Row{value.Int(int64(i))})
		}
		if len(tbl.slots) != slots || cap(tbl.entries) != rows {
			t.Errorf("%d reserved rows regrew the table to %d slots, %d entries", rows, len(tbl.slots), cap(tbl.entries))
		}
		tbl.reserve(sc, rows) // the next batch: room for both, no more
		if cap(tbl.entries) < 2*rows || cap(tbl.entries) > 4*rows || len(tbl.slots)*3 < 2*rows*4 {
			t.Errorf("second reserve(%d): %d slots, room for %d entries", rows, len(tbl.slots), cap(tbl.entries))
		}
	}
	u := &rowTable{}
	if u.find(42) != rtNone {
		t.Error("find on an empty table found something")
	}
	u.insert(NewScratch(), 42, value.Row{value.Int(1)})
	if len(u.slots) != rtFloorSlots {
		t.Errorf("empty table starts from %d slots, want %d", len(u.slots), rtFloorSlots)
	}
	// Room that was too little only costs regrowth.
	low, sc := &rowTable{}, NewScratch()
	low.reserve(sc, 1)
	for i := 0; i < 500; i++ {
		low.insert(sc, uint64(i%50), value.Row{value.Int(int64(i))})
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

// TestScanInPlaceFilterMatchesScanFilter: the table iterator hands out
// the table's rows where they lie, and a filter over it returns exactly
// what the reference Scan + Filter returns, counts the same rows
// scanned, and charges the governor for the rows kept, not for the
// table.
func TestScanInPlaceFilterMatchesScanFilter(t *testing.T) {
	const n, kept = 5000, 500
	tbl := inPlaceTable(t, n)
	cols := QualifiedCols(tbl, "X")
	pred := &ast.Compare{Op: ast.EqOp,
		L: &ast.ColumnRef{Qualifier: "X", Column: "B"}, R: &ast.HostVar{Name: "K"}}
	env := &eval.Env{Hosts: map[string]value.Value{"K": value.Int(7)}}
	scanFilter := func(st *Stats) Iterator {
		return NewFilterIter(st, NewTableIter(st, tbl, cols), eval.Prepare(pred, cols, nil), env)
	}

	// The two subtests once ran under different worker pools. There is no
	// pool now, so they run the same check; both keep their names, so
	// the test reports under the IDs it always has.
	for _, name := range []string{"serial", "parallel"} {
		t.Run(name, func(t *testing.T) {
			stC := &Stats{}
			want := okRel(Filter(ctx0, stC, okRel(Scan(ctx0, stC, tbl, "X")), pred, env))

			stP := &Stats{}
			gov := NewGovernor(2*kept, 0) // room for the kept rows, in flight and drained
			ctx := WithGovernor(context.Background(), gov)
			got, err := Drain(ctx, stP, scanFilter(stP))
			if err != nil {
				t.Fatalf("in-place filter under a %d-row budget: %v", 2*kept, err)
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
			if peak, _ := gov.Peak(); peak >= n {
				t.Errorf("peak rows charged = %d: the %d-row scan was charged", peak, n)
			}

			// A budget below what the filter keeps trips on the kept rows.
			tight := WithGovernor(context.Background(), NewGovernor(kept-1, 0))
			stT := &Stats{}
			if _, err := Drain(tight, stT, scanFilter(stT)); !errors.Is(err, ErrBudgetExceeded) {
				t.Errorf("in-place filter over budget: err = %v, want ErrBudgetExceeded", err)
			}
		})
	}

	// Cancellation reaches the scan.
	cctx, cancel := context.WithCancel(context.Background())
	cancel()
	st := &Stats{}
	scan := NewTableIter(st, tbl, cols)
	if _, err := scan.Next(cctx); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled table scan: err = %v", err)
	}
	// A batch is a window of the table's own rows that cannot grow into
	// the table's storage.
	b, err := scan.Next(ctx0)
	if err != nil || len(b) == 0 {
		t.Fatalf("first batch: %d rows, err = %v", len(b), err)
	}
	if &b[0] != &tbl.Rows()[0] || cap(b) != len(b) {
		t.Errorf("batch is not a capacity-clipped window of the table's rows (len %d cap %d)", len(b), cap(b))
	}
	grown := append(b, value.Row{value.Int(-1), value.Int(-1)})
	if tbl.Len() != n || &grown[0] == &tbl.Rows()[0] || tbl.Row(len(b))[0].AsInt() != int64(len(b)) {
		t.Error("appending to a batch reached the table's row slice")
	}
}

// TestStatsAddSnapshotDoNotAllocate: the field enumeration behind Add
// and Snapshot lives on the stack.
func TestStatsAddSnapshotDoNotAllocate(t *testing.T) {
	var s Stats
	o := Stats{RowsScanned: 3, HashProbes: 2, Batches: 1}
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
