package wal

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"uniqopt/internal/value"
)

// sealedDir builds a directory with two sealed generations and a live
// one: 4 rows in wal-1.log, 4 in wal-2.log, 2 in wal-3.log.
func sealedDir(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	s := openReady(t, dir)
	seedSuppliers(t, s, 4)
	for id := int64(4); id < 10; id++ {
		if id == 4 || id == 8 {
			if err := s.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Insert("SUPPLIER", value.Row{value.Int(id), value.String_("S"), value.Int(1)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if got, want := fileNames(t, dir), []string{manifestName, walName(1), walName(2), walName(3)}; !reflect.DeepEqual(got, want) {
		t.Fatalf("directory holds %v, want %v", got, want)
	}
	return dir
}

// recoverErr reopens dir and returns what Recover said.
func recoverErr(t *testing.T, dir string) error {
	t.Helper()
	re, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	return re.Recover()
}

func TestSealedGenerationsRecoverInOrder(t *testing.T) {
	dir := sealedDir(t)
	before := dirFiles(t, dir)
	re := openReady(t, dir)
	rows := supplierRows(re)
	if len(rows) != 10 {
		t.Fatalf("recovered %d rows, want 10", len(rows))
	}
	for i, row := range rows {
		if row[0].AsInt() != int64(i) {
			t.Fatalf("row %d holds id %d: generations replayed out of order", i, row[0].AsInt())
		}
	}
	st := re.Stats()
	if st.Generation != 3 || st.SnapshotTables != 1 || st.SnapshotRows != 8 || st.ReplayedDDL != 0 || st.ReplayedRows != 2 || st.TornTail {
		t.Errorf("stats: %+v (want gen 3, 1 table + 8 rows sealed, 2 rows replayed)", st)
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	// A recovery of a clean directory changes no file.
	if after := dirFiles(t, dir); !reflect.DeepEqual(after, before) {
		t.Errorf("recovery rewrote the directory: %v, was %v", fileNames(t, dir), before)
	}
}

func TestSealedGenerationDamageRefused(t *testing.T) {
	cases := []struct {
		name   string
		damage func(t *testing.T, dir string)
		want   error
	}{
		{"missing sealed generation", func(t *testing.T, dir string) {
			if err := os.Remove(walPath(dir, 2)); err != nil {
				t.Fatal(err)
			}
		}, ErrMissingGeneration},
		{"missing live generation", func(t *testing.T, dir string) {
			if err := os.Remove(walPath(dir, 3)); err != nil {
				t.Fatal(err)
			}
		}, ErrMissingGeneration},
		{"missing manifest", func(t *testing.T, dir string) {
			if err := os.Remove(filepath.Join(dir, manifestName)); err != nil {
				t.Fatal(err)
			}
		}, ErrMissingGeneration},
		{"sealed file with a torn tail", func(t *testing.T, dir string) {
			// The shape the live log is forgiven for.
			if err := os.Truncate(walPath(dir, 1), fileSize(t, walPath(dir, 1))-3); err != nil {
				t.Fatal(err)
			}
		}, ErrCorrupt},
		{"sealed file with its last frame flipped", func(t *testing.T, dir string) {
			flipByte(t, walPath(dir, 2), -2)
		}, ErrCorrupt},
		{"interior CRC flip in a sealed file", func(t *testing.T, dir string) {
			flipByte(t, walPath(dir, 1), int(fileSize(t, walPath(dir, 1))/2))
		}, ErrCorrupt},
		{"sealed file under another generation's name", func(t *testing.T, dir string) {
			raw, err := os.ReadFile(walPath(dir, 1))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(walPath(dir, 2), raw, 0o644); err != nil {
				t.Fatal(err)
			}
		}, ErrCorrupt},
		{"old full-heap snapshot format", func(t *testing.T, dir string) {
			if err := os.WriteFile(filepath.Join(dir, "snapshot.dat"), []byte("UQSNAP01 and then every row"), 0o644); err != nil {
				t.Fatal(err)
			}
		}, ErrOldFormat},
		{"old format without a manifest", func(t *testing.T, dir string) {
			if err := os.Remove(filepath.Join(dir, manifestName)); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, "snapshot.dat"), []byte("UQSNAP01"), 0o644); err != nil {
				t.Fatal(err)
			}
		}, ErrOldFormat},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := sealedDir(t)
			tc.damage(t, dir)
			before := fileNames(t, dir)
			if err := recoverErr(t, dir); !errors.Is(err, tc.want) {
				t.Fatalf("recover: got %v, want %v", err, tc.want)
			}
			// A refusal deletes nothing: the operator may still repair.
			if after := fileNames(t, dir); !reflect.DeepEqual(after, before) {
				t.Errorf("refused recovery changed the directory: %v, was %v", after, before)
			}
		})
	}
}

// flipByte flips one bit of the byte at off (from the end if negative).
func flipByte(t *testing.T, path string, off int) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if off < 0 {
		off += len(raw)
	}
	raw[off] ^= 0x01
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

// The live log keeps its tolerance with sealed generations before it:
// its torn tail is cut, theirs are untouched.
func TestLiveTornTailAfterSealedGenerations(t *testing.T) {
	dir := sealedDir(t)
	sealed1, sealed2 := dirFiles(t, dir)[walName(1)], dirFiles(t, dir)[walName(2)]
	full := insertFrame(value.Row{value.Int(50), value.String_("S"), value.Int(0)})
	f, err := os.OpenFile(walPath(dir, 3), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(full[:len(full)/2]); err != nil {
		t.Fatal(err)
	}
	f.Close()
	re := openReady(t, dir)
	defer re.Close()
	if st := re.Stats(); !st.TornTail || st.TornBytes != int64(len(full)/2) || st.SnapshotRows != 8 || st.ReplayedRows != 2 {
		t.Errorf("stats: %+v", st)
	}
	files := dirFiles(t, dir)
	if files[walName(1)] != sealed1 || files[walName(2)] != sealed2 {
		t.Error("recovery wrote to a sealed generation")
	}
}

// A Checkpoint on a store with nothing to seal still starts a new
// generation: callers checkpoint to get a fresh live log and then look
// for wal-<Generation()>.log.
func TestCheckpointOnCleanStoreAdvances(t *testing.T) {
	dir := t.TempDir()
	s := openReady(t, dir)
	defer s.Close()
	for want := uint64(2); want <= 4; want++ {
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if got := s.Generation(); got != want {
			t.Fatalf("generation %d, want %d", got, want)
		}
		if _, err := os.Stat(walPath(dir, want)); err != nil {
			t.Fatalf("live log of generation %d: %v", want, err)
		}
	}
}

// What a checkpoint costs does not depend on how much was written
// before it: with CheckpointEvery = k and records of one size, the
// directory grows between two consecutive checkpoints by the k records
// plus a constant — the next log's header and marker and one more
// manifest entry — and that constant is the same at the 2nd checkpoint
// and the 20th. (The snapshot format re-encoded every row: there the
// 20th cost ten times the 2nd.)
func TestCheckpointCostIndependentOfTableSize(t *testing.T) {
	const k = 25
	dir := t.TempDir()
	s, err := Open(dir, Options{CheckpointEvery: k})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Recover(); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ct, err := parseCreate(testDDL)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.ApplyDDL(testDDL, ct); err != nil {
		t.Fatal(err)
	}
	dirSize := func() int64 {
		if err := s.Sync(); err != nil {
			t.Fatal(err)
		}
		var n int64
		for _, content := range dirFiles(t, dir) {
			n += int64(len(content))
		}
		return n
	}
	// Ids that all encode to the same width, so every record is one size.
	record := int64(len(insertFrame(value.Row{value.Int(100), value.String_("S"), value.Int(0)})))
	var sizeAt []int64 // directory size right after checkpoint #i+1
	for id, gen := int64(100), s.Generation(); len(sizeAt) < 20; id++ {
		if err := s.Insert("SUPPLIER", value.Row{value.Int(id), value.String_("S"), value.Int(id % 7)}); err != nil {
			t.Fatal(err)
		}
		if g := s.Generation(); g != gen {
			gen, sizeAt = g, append(sizeAt, dirSize())
		}
	}
	overhead := func(i int) int64 { return sizeAt[i] - sizeAt[i-1] - k*record }
	second, twentieth := overhead(1), overhead(19)
	if second != twentieth || second <= 0 || second > 100 {
		t.Errorf("a checkpoint adds %d bytes beyond its records at the 2nd and %d at the 20th; want the same small constant",
			second, twentieth)
	}
}
