//go:build fault

package wal

import (
	"errors"
	"fmt"
	"os"
	"slices"
	"sort"
	"strings"
	"testing"

	"uniqopt/internal/fault"
	"uniqopt/internal/storage"
	"uniqopt/internal/testleak"
	"uniqopt/internal/value"
)

// countFDs reports the process's open file descriptors (Linux); -1
// where /proc is unavailable.
func countFDs() int {
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return -1
	}
	return len(ents)
}

// crashWorkload drives a scripted write sequence against a store in
// dir with a fault armed, recording which row ids were acknowledged
// (covered by a successful Sync). It stops at the first wedging
// failure, exactly like a server would.
func crashWorkload(t *testing.T, dir string) (acked []int64, inserted []int64) {
	t.Helper()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer s.Close()
	if err := s.Recover(); err != nil {
		// The armed fault hit the initial-open path (log creation or
		// the first manifest); nothing was promised.
		return nil, nil
	}
	ct, err := parseCreate(testDDL)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.ApplyDDL(testDDL, ct); err != nil {
		// DDL is fsync-acked; a fault here means nothing is promised.
		return nil, nil
	}
	var pending []int64
	for i := int64(0); i < 30; i++ {
		if err := s.Insert("SUPPLIER", value.Row{value.Int(i), value.String_("S"), value.Int(0)}); err != nil {
			break
		}
		inserted = append(inserted, i)
		pending = append(pending, i)
		if len(pending) == 5 {
			if err := s.Sync(); err != nil {
				pending = nil
				break
			}
			acked = append(acked, pending...)
			pending = nil
		}
		if i%5 == 4 && i >= 9 && i <= 24 {
			// Four checkpoints in a row, so every Skip the matrix arms
			// lands a checkpoint fault on a different one of them;
			// failures here must leave the current generation live and
			// writable (unless wedged).
			_ = s.Checkpoint()
		}
	}
	return acked, inserted
}

// TestCrashRecoveryMatrix arms every wal.* fault point at several
// deterministic firing sites, runs the scripted workload, then
// reopens the directory and asserts the recovery contract: either
// recovery succeeds and the heap holds a prefix of the inserted
// sequence covering every acknowledged row, or it refuses with a
// typed corruption error (bit-rot of once-durable interior frames —
// the one fate truncation must NOT paper over).
func TestCrashRecoveryMatrix(t *testing.T) {
	testleak.Check(t)
	var walPoints []string
	for _, name := range fault.Registered() {
		if strings.HasPrefix(name, "wal.") {
			walPoints = append(walPoints, name)
		}
	}
	if len(walPoints) < 7 {
		t.Fatalf("expected the 7 wal fault points registered, got %v", walPoints)
	}
	baseFDs := countFDs()

	for _, point := range walPoints {
		for _, skip := range []int{0, 1, 2, 5} {
			t.Run(fmt.Sprintf("%s/skip%d", point, skip), func(t *testing.T) {
				fault.Reset()
				defer fault.Reset()
				if err := fault.Arm(point, fault.Spec{Mode: fault.ModeError, Skip: skip, Limit: 1}); err != nil {
					t.Fatal(err)
				}
				dir := t.TempDir()
				acked, inserted := crashWorkload(t, dir)
				fault.Reset() // recovery itself runs fault-free

				re, err := Open(dir, Options{})
				if err != nil {
					t.Fatalf("reopen: %v", err)
				}
				defer re.Close()
				switch err := re.Recover(); {
				case err == nil:
					rows := supplierRows(re)
					// Prefix property: the recovered rows are exactly
					// the first len(rows) inserted ids, in order.
					if len(rows) > len(inserted) {
						t.Fatalf("recovered %d rows, only %d were ever inserted", len(rows), len(inserted))
					}
					for i, row := range rows {
						if row[0].AsInt() != inserted[i] {
							t.Fatalf("row %d: got id %d, want %d (not a prefix)", i, row[0].AsInt(), inserted[i])
						}
					}
					// No acknowledged row may be missing.
					if len(rows) < len(acked) {
						t.Fatalf("recovered %d rows, %d were acknowledged", len(rows), len(acked))
					}
					// Writes must work again after recovery. If the
					// fault fired before the DDL was acked, the table
					// legitimately does not exist yet — recreate it.
					if _, ok := re.Heap().Table("SUPPLIER"); !ok {
						ct, err := parseCreate(testDDL)
						if err != nil {
							t.Fatal(err)
						}
						if _, err := re.ApplyDDL(testDDL, ct); err != nil {
							t.Fatalf("ddl after recovery: %v", err)
						}
					}
					if err := re.Insert("SUPPLIER", value.Row{value.Int(1000), value.String_("S"), value.Int(0)}); err != nil {
						t.Fatalf("insert after recovery: %v", err)
					}
					if err := re.Sync(); err != nil {
						t.Fatalf("sync after recovery: %v", err)
					}
				case errors.Is(err, ErrCorrupt):
					// Typed refusal: only acceptable for the silent
					// bit-flip fault, whose corruption may land in the
					// durable interior.
					if point != FaultAppendCorrupt {
						t.Fatalf("recover: unexpected corruption verdict %v for %s", err, point)
					}
					if re.Recovering() != true {
						t.Error("store should stay recovering after typed refusal")
					}
					if werr := re.Insert("SUPPLIER", value.Row{value.Int(0)}); !errors.Is(werr, storage.ErrRecovering) {
						t.Errorf("insert after refusal: got %v, want ErrRecovering", werr)
					}
				default:
					t.Fatalf("recover: %v (neither success nor typed corruption)", err)
				}
			})
		}
	}

	if baseFDs >= 0 {
		if got := countFDs(); got > baseFDs {
			t.Errorf("file descriptors leaked across the matrix: %d before, %d after", baseFDs, got)
		}
	}
}

// TestCheckpointCrashWindows kills the store inside each window of the
// checkpoint protocol — the fault point panics, so nothing after it
// runs, no cleanup included — at the 1st, 2nd and 3rd of consecutive
// checkpoints, and checks what DESIGN §12 says each window leaves:
// the exact file set at the moment of death, then after recovery the
// generation that is live, acked ⊆ recovered ⊆ inserted, the residue
// gone and the sealed logs byte for byte what they were. "committed" is
// the window after the rename: no fault, the process just stops.
func TestCheckpointCrashWindows(t *testing.T) {
	defer fault.Reset()
	windows := []struct {
		point     string
		firstOpen int      // times the point is passed before the first checkpoint
		residue   []string // what the window leaves beside MANIFEST and the named logs
	}{
		{FaultCheckpointNewLog, 0, nil},
		{FaultCheckpointSnapshot, 1, []string{"stray log"}},
		{FaultCheckpointRename, 1, []string{"stray log", "manifest temp"}},
		{"committed", 0, nil},
	}
	for _, w := range windows {
		for nth := 1; nth <= 3; nth++ {
			t.Run(fmt.Sprintf("%s/checkpoint%d", w.point, nth), func(t *testing.T) {
				fault.Reset()
				if w.point != "committed" {
					if err := fault.Arm(w.point, fault.Spec{Mode: fault.ModePanic, Skip: w.firstOpen + nth - 1, Limit: 1}); err != nil {
						t.Fatal(err)
					}
				}
				dir := t.TempDir()
				s := openReady(t, dir)
				ct, err := parseCreate(testDDL)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := s.ApplyDDL(testDDL, ct); err != nil {
					t.Fatal(err)
				}
				var acked, inserted int64
				insert := func(s *Store, n int64) {
					for ; n > 0; n-- {
						if err := s.Insert("SUPPLIER", value.Row{value.Int(inserted), value.String_("S"), value.Int(0)}); err != nil {
							t.Fatal(err)
						}
						inserted++
					}
				}
				for c := 1; c <= nth; c++ {
					insert(s, 5)
					if err := s.Sync(); err != nil {
						t.Fatal(err)
					}
					acked = inserted
					insert(s, 2) // written, never acknowledged
					died := func() (died bool) {
						defer func() { died = recover() != nil }()
						if err := s.Checkpoint(); err != nil {
							t.Fatal(err)
						}
						return false
					}()
					if died != (c == nth && w.point != "committed") {
						t.Fatalf("checkpoint %d: died = %v", c, died)
					}
				}
				// The process is gone: no flush, no close, no cleanup.
				s.mu.Lock()
				s.log.f.Close()
				s.state = stateClosed
				s.mu.Unlock()
				fault.Reset()

				live := uint64(nth)
				if w.point == "committed" {
					live++
				}
				want := []string{manifestName}
				for g := uint64(1); g <= live; g++ {
					want = append(want, walName(g))
				}
				left := dirFiles(t, dir)
				var residue []string
				for name := range left {
					switch {
					case name == walName(live+1):
						residue = append(residue, "stray log")
					case strings.HasPrefix(name, "manifest-") && strings.HasSuffix(name, ".tmp"):
						residue = append(residue, "manifest temp")
					case !slices.Contains(want, name):
						t.Errorf("unexpected file %s", name)
					}
				}
				sort.Strings(residue)
				sort.Strings(w.residue)
				if len(left) != len(want)+len(residue) || !slices.Equal(residue, w.residue) {
					t.Fatalf("the window left %v; want %v and residue %v", fileNames(t, dir), want, w.residue)
				}

				re := openReady(t, dir)
				defer re.Close()
				if got := re.Generation(); got != live {
					t.Fatalf("generation %d live after recovery, want %d", got, live)
				}
				rows := supplierRows(re)
				if int64(len(rows)) < acked || int64(len(rows)) > inserted {
					t.Fatalf("recovered %d rows; %d acknowledged, %d inserted", len(rows), acked, inserted)
				}
				for i, row := range rows {
					if row[0].AsInt() != int64(i) {
						t.Fatalf("row %d holds id %d: not a prefix of what was inserted", i, row[0].AsInt())
					}
				}
				if st := re.Stats(); st.SnapshotRows+st.ReplayedRows != len(rows) || st.SnapshotTables+st.ReplayedDDL != 1 {
					t.Errorf("stats do not add up to %d rows and 1 table: %+v", len(rows), st)
				}
				sort.Strings(want)
				if got := fileNames(t, dir); !slices.Equal(got, want) {
					t.Fatalf("after recovery the directory holds %v, want %v", got, want)
				}
				after := dirFiles(t, dir)
				for g := uint64(1); g < live; g++ {
					if after[walName(g)] != left[walName(g)] {
						t.Errorf("recovery rewrote sealed %s", walName(g))
					}
				}
				// The next checkpoint goes through and loses nothing.
				inserted = int64(len(rows))
				insert(re, 3)
				if err := re.Checkpoint(); err != nil {
					t.Fatal(err)
				}
				if err := re.Close(); err != nil {
					t.Fatal(err)
				}
				again := openReady(t, dir)
				defer again.Close()
				if got := int64(len(supplierRows(again))); got != inserted || again.Generation() != live+1 {
					t.Fatalf("after one more checkpoint: %d rows at generation %d, want %d at %d", got, again.Generation(), inserted, live+1)
				}
			})
		}
	}
}

// TestFaultPointsRegistered pins the registry names the Makefile's
// crash-matrix target greps for.
func TestFaultPointsRegistered(t *testing.T) {
	want := []string{FaultAppend, FaultAppendShort, FaultAppendCorrupt, FaultSync,
		FaultCheckpointNewLog, FaultCheckpointSnapshot, FaultCheckpointRename}
	reg := fault.Registered()
	have := make(map[string]bool, len(reg))
	for _, n := range reg {
		have[n] = true
	}
	for _, n := range want {
		if !have[n] {
			t.Errorf("fault point %s not registered", n)
		}
	}
}
