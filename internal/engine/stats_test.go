package engine

import (
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"uniqopt/internal/value"
)

// TestStatsFieldsEnumeratesEveryField pins the invariant that makes
// Add/Snapshot merging safe to extend: every int64 field of Stats must
// appear exactly once in fields(), so a newly added counter can never
// be silently dropped from accumulation.
func TestStatsFieldsEnumeratesEveryField(t *testing.T) {
	var a, b Stats
	fs := a.fields(&b)

	typ := reflect.TypeOf(a)
	av := reflect.ValueOf(&a).Elem()
	bv := reflect.ValueOf(&b).Elem()

	dsts := make(map[unsafe.Pointer]bool, len(fs))
	srcs := make(map[unsafe.Pointer]bool, len(fs))
	for _, f := range fs {
		if dsts[unsafe.Pointer(f.dst)] {
			t.Errorf("fields() lists a destination counter twice")
		}
		dsts[unsafe.Pointer(f.dst)] = true
		srcs[unsafe.Pointer(f.src)] = true
	}

	for i := 0; i < typ.NumField(); i++ {
		sf := typ.Field(i)
		if sf.Type.Kind() != reflect.Int64 {
			t.Fatalf("Stats.%s is %s; fields() only knows how to merge int64 counters — extend the mechanism", sf.Name, sf.Type)
		}
		ap := unsafe.Pointer(av.Field(i).Addr().Pointer())
		bp := unsafe.Pointer(bv.Field(i).Addr().Pointer())
		if !dsts[ap] {
			t.Errorf("Stats.%s is missing from fields(): Add/Snapshot would silently drop it", sf.Name)
		}
		if !srcs[bp] {
			t.Errorf("Stats.%s is missing from fields() sources", sf.Name)
		}
	}
	if len(fs) != typ.NumField() {
		t.Errorf("fields() has %d entries for %d struct fields", len(fs), typ.NumField())
	}
}

// TestStatsAddMergesGaugesByMax checks that WorkersUsed merges as a
// high-water gauge while counters still sum.
func TestStatsAddMergesGaugesByMax(t *testing.T) {
	var s Stats
	s.Add(Stats{RowsScanned: 3, WorkersUsed: 4})
	s.Add(Stats{RowsScanned: 5, WorkersUsed: 2})
	if got := s.Snapshot(); got.RowsScanned != 8 || got.WorkersUsed != 4 {
		t.Errorf("got scanned=%d workers=%d, want scanned=8 workers=4", got.RowsScanned, got.WorkersUsed)
	}
}

// TestStatsStringReportsWorkersUsed is the regression test for the
// reporting bug where String() rendered the *current global* pool size
// instead of the worker count the execution actually used. Changing
// UNIQOPT_WORKERS (or SetWorkers) between the run and the render must
// not change what the render says.
func TestStatsStringReportsWorkersUsed(t *testing.T) {
	oldW := SetWorkers(3)
	oldT := SetParallelThreshold(1)
	defer func() {
		SetWorkers(oldW)
		SetParallelThreshold(oldT)
	}()

	rel := &Relation{Cols: []string{"T.A", "T.B"}}
	for i := 0; i < 64; i++ {
		rel.Rows = append(rel.Rows, value.Row{value.Int(int64(i)), value.Int(int64(i % 7))})
	}
	var st Stats
	out := okRel(Drain(ctx0, &st, projIter(&st, NewRelationIter(&st, rel), "T.A")))
	if out.Len() != 64 {
		t.Fatalf("project returned %d rows", out.Len())
	}
	if st.ParallelRuns == 0 {
		t.Fatal("expected the parallel path with threshold 1 and 3 workers")
	}

	// Reconfigure the pool after the run: the render must keep
	// reporting the execution's own width. (UNIQOPT_WORKERS is latched
	// once per process, so setting it here doubles as a check that a
	// late env change cannot leak into an existing execution's stats.)
	os.Setenv("UNIQOPT_WORKERS", "17")
	defer os.Unsetenv("UNIQOPT_WORKERS")
	SetWorkers(9)

	s := st.String()
	if !strings.Contains(s, "workers=3") {
		t.Errorf("String() should report the workers actually used (3): %s", s)
	}
	if strings.Contains(s, "workers=9") || strings.Contains(s, "workers=17") {
		t.Errorf("String() leaked the current global pool size: %s", s)
	}
	if want := fmt.Sprintf("workers=%d", st.Snapshot().WorkersUsed); !strings.Contains(s, want) {
		t.Errorf("String() disagrees with WorkersUsed: %s", s)
	}
}
