package wal

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"uniqopt/internal/storage"
	"uniqopt/internal/value"
	"uniqopt/internal/valuetest"
)

const testDDL = `CREATE TABLE SUPPLIER (SNO INTEGER NOT NULL, NAME VARCHAR, STATUS INTEGER, PRIMARY KEY (SNO), CHECK (STATUS >= 0))`

// openReady opens and recovers a store over dir.
func openReady(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if !s.Recovering() {
		t.Fatal("store should report recovering before Recover")
	}
	if err := s.Recover(); err != nil {
		t.Fatalf("recover: %v", err)
	}
	if s.Recovering() {
		t.Fatal("store still recovering after Recover")
	}
	return s
}

// seedSuppliers defines the table and inserts n synced rows.
func seedSuppliers(t *testing.T, s *Store, n int) {
	t.Helper()
	ct, err := parseCreate(testDDL)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.ApplyDDL(testDDL, ct); err != nil {
		t.Fatalf("ddl: %v", err)
	}
	for i := 0; i < n; i++ {
		row := value.Row{value.Int(int64(i)), value.String_("S"), value.Int(int64(i % 7))}
		if err := s.Insert("SUPPLIER", row); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	if err := s.Sync(); err != nil {
		t.Fatalf("sync: %v", err)
	}
}

// insertFrame is the complete log frame of one SUPPLIER insert, for
// tests that forge or tear log bytes.
func insertFrame(row value.Row) []byte {
	return finishFrame(appendInsert(make([]byte, frameHdrLen), "SUPPLIER", row))
}

// dirFiles maps every file name in dir to its content.
func dirFiles(t *testing.T, dir string) map[string]string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := map[string]string{}
	for _, e := range ents {
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = string(raw)
	}
	return files
}

// fileNames lists dir, sorted.
func fileNames(t *testing.T, dir string) []string {
	t.Helper()
	var names []string
	for name := range dirFiles(t, dir) {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func supplierRows(s *Store) []value.Row {
	t, ok := s.Heap().Table("SUPPLIER")
	if !ok {
		return nil
	}
	rows := make([]value.Row, t.Len())
	for i := range rows {
		rows[i] = t.Row(i)
	}
	return rows
}

func TestFreshRecoverRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := openReady(t, dir)
	seedSuppliers(t, s, 10)
	verBefore := s.Catalog().Version()
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	re := openReady(t, dir)
	defer re.Close()
	if got := len(supplierRows(re)); got != 10 {
		t.Fatalf("recovered %d rows, want 10", got)
	}
	if got := re.Catalog().Version(); got < verBefore {
		t.Errorf("catalog version went backwards: %d < %d", got, verBefore)
	}
	st := re.Stats()
	if st.ReplayedDDL != 1 || st.ReplayedRows != 10 || st.TornTail {
		t.Errorf("stats: %+v", st)
	}
	// Constraints survived the trip: a duplicate key must be refused.
	dup := value.Row{value.Int(3), value.String_("S"), value.Int(0)}
	if err := re.Insert("SUPPLIER", dup); err == nil {
		t.Error("duplicate key accepted after recovery")
	}
	// And so did the CHECK.
	bad := value.Row{value.Int(99), value.String_("S"), value.Int(-1)}
	if err := re.Insert("SUPPLIER", bad); err == nil {
		t.Error("CHECK violation accepted after recovery")
	}
}

// TestReopenKeepsRowsInOrder: rows spread over three chunks, with NULL,
// string and integer cells, come back from a reopen as the same rows in
// the same order — replay decodes every record into one buffer, which
// the heap copies.
func TestReopenKeepsRowsInOrder(t *testing.T) {
	dir := t.TempDir()
	s := openReady(t, dir)
	seedSuppliers(t, s, 0)
	const n = 2*storage.ChunkRows + 1
	for i := 0; i < n; i++ {
		row := value.Row{value.Int(int64(n - i)), value.String_(fmt.Sprint("name ", i)), value.Int(int64(i))}
		if i%3 == 0 {
			row[1] = value.Null
		}
		if err := s.Insert("SUPPLIER", row); err != nil {
			t.Fatal(err)
		}
	}
	want := supplierRows(s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	re := openReady(t, dir)
	defer re.Close()
	if got := supplierRows(re); !valuetest.Same(nil, got, nil, want) || len(got) != n {
		t.Fatalf("reopened %d rows, want the %d written, in order", len(got), n)
	}
}

func TestUnsyncedRowsAreNotPromised(t *testing.T) {
	dir := t.TempDir()
	s := openReady(t, dir)
	seedSuppliers(t, s, 5)
	// Appended but never synced: allowed to vanish on crash.
	if err := s.Insert("SUPPLIER", value.Row{value.Int(100), value.String_("S"), value.Int(0)}); err != nil {
		t.Fatal(err)
	}
	// Simulate the crash: drop the buffered append on the floor.
	s.mu.Lock()
	s.log.f.Close()
	s.state = stateClosed
	s.mu.Unlock()

	re := openReady(t, dir)
	defer re.Close()
	if got := len(supplierRows(re)); got != 5 {
		t.Fatalf("recovered %d rows, want the 5 synced ones", got)
	}
}

func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	s := openReady(t, dir)
	seedSuppliers(t, s, 5)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Crash residue: a frame whose payload never finished landing.
	path := walPath(dir, 1)
	full := insertFrame(value.Row{value.Int(50), value.String_("S"), value.Int(0)})
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(full[:len(full)-3]); err != nil {
		t.Fatal(err)
	}
	f.Close()
	sizeBefore := fileSize(t, path)

	re := openReady(t, dir)
	defer re.Close()
	if got := len(supplierRows(re)); got != 5 {
		t.Fatalf("recovered %d rows, want 5", got)
	}
	st := re.Stats()
	if !st.TornTail || st.TornBytes != int64(len(full)-3) {
		t.Errorf("stats: %+v (torn bytes want %d)", st, len(full)-3)
	}
	if got := fileSize(t, path); got != sizeBefore-int64(len(full)-3) {
		t.Errorf("log not truncated: %d bytes, want %d", got, sizeBefore-int64(len(full)-3))
	}
	// The truncated log must keep accepting writes.
	if err := re.Insert("SUPPLIER", value.Row{value.Int(50), value.String_("S"), value.Int(0)}); err != nil {
		t.Fatalf("insert after truncation: %v", err)
	}
	if err := re.Sync(); err != nil {
		t.Fatal(err)
	}
}

func TestInteriorCorruptionRejected(t *testing.T) {
	dir := t.TempDir()
	s := openReady(t, dir)
	seedSuppliers(t, s, 5)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Flip a bit in the middle of the log (not the final frame).
	path := walPath(dir, 1)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x01
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	re, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	err = re.Recover()
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("recover: got %v, want ErrCorrupt", err)
	}
	// The store stays recovering: readable, write-refusing.
	if !re.Recovering() {
		t.Error("store should stay recovering after failed recovery")
	}
	if err := re.Insert("SUPPLIER", value.Row{value.Int(1)}); !errors.Is(err, storage.ErrRecovering) {
		t.Errorf("insert: got %v, want ErrRecovering", err)
	}
	re.Close()
}

func TestManifestCorruptionRejected(t *testing.T) {
	dir := t.TempDir()
	s := openReady(t, dir)
	seedSuppliers(t, s, 3)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(dir, manifestName)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, flip := range []int{len(manifestMagic) + 7, len(raw) / 2, len(raw) - 1} {
		bad := append([]byte(nil), raw...)
		bad[flip] ^= 0x80
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		re, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := re.Recover(); !errors.Is(err, ErrManifestCorrupt) {
			t.Errorf("byte %d flipped: recover: got %v, want ErrManifestCorrupt", flip, err)
		}
		re.Close()
	}
	// Truncated below its fixed part, and cut mid-list.
	for _, cut := range []int{len(manifestMagic) + 3, len(raw) - 8} {
		if err := os.WriteFile(path, raw[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		re, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := re.Recover(); !errors.Is(err, ErrManifestCorrupt) {
			t.Errorf("cut to %d bytes: recover: got %v, want ErrManifestCorrupt", cut, err)
		}
		re.Close()
	}
}

func TestCheckpointRotatesGeneration(t *testing.T) {
	dir := t.TempDir()
	s := openReady(t, dir)
	seedSuppliers(t, s, 8)
	if err := s.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	if got := s.Generation(); got != 2 {
		t.Fatalf("generation: got %d want 2", got)
	}
	sealed, err := os.ReadFile(walPath(dir, 1))
	if err != nil {
		t.Fatalf("wal-1.log should stay, sealed, after the checkpoint: %v", err)
	}
	// Writes continue into the new generation.
	if err := s.Insert("SUPPLIER", value.Row{value.Int(100), value.String_("S"), value.Int(1)}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	re := openReady(t, dir)
	defer re.Close()
	if got := len(supplierRows(re)); got != 9 {
		t.Fatalf("recovered %d rows, want 9", got)
	}
	st := re.Stats()
	if st.SnapshotRows != 8 || st.ReplayedRows != 1 || st.SnapshotTables != 1 || st.ReplayedDDL != 0 {
		t.Errorf("stats: %+v (want 1 table and 8 rows from the sealed generation, 1 row replayed)", st)
	}
	if st.Generation != 2 {
		t.Errorf("generation: got %d want 2", st.Generation)
	}
	// A sealed log is never written again: not by the appends after the
	// checkpoint, not by Close, not by recovery.
	if after, err := os.ReadFile(walPath(dir, 1)); err != nil || string(after) != string(sealed) {
		t.Errorf("wal-1.log changed after it was sealed (err %v)", err)
	}
	if got, want := fileNames(t, dir), []string{manifestName, walName(1), walName(2)}; !reflect.DeepEqual(got, want) {
		t.Errorf("directory holds %v, want %v", got, want)
	}
}

func TestAutoCheckpoint(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{CheckpointEvery: 10})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Recover(); err != nil {
		t.Fatal(err)
	}
	seedSuppliers(t, s, 25)
	if got := s.Generation(); got < 3 {
		t.Errorf("generation after 25 inserts at CheckpointEvery=10: got %d, want >= 3", got)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	re := openReady(t, dir)
	defer re.Close()
	if got := len(supplierRows(re)); got != 25 {
		t.Fatalf("recovered %d rows, want 25", got)
	}
}

func TestReplayRejectsConstraintViolations(t *testing.T) {
	dir := t.TempDir()
	s := openReady(t, dir)
	seedSuppliers(t, s, 3)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Forge a duplicate-key insert as a perfectly well-formed frame:
	// only the constraint replay can catch it.
	dup := insertFrame(value.Row{value.Int(1), value.String_("S"), value.Int(1)})
	// Follow it with another valid frame so it is not mistaken for a
	// torn tail.
	more := insertFrame(value.Row{value.Int(9), value.String_("S"), value.Int(1)})
	f, err := os.OpenFile(walPath(dir, 1), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(append(dup, more...)); err != nil {
		t.Fatal(err)
	}
	f.Close()

	re, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if err := re.Recover(); !errors.Is(err, ErrReplay) {
		t.Fatalf("recover: got %v, want ErrReplay", err)
	}
}

func TestStaleGenerationsDeleted(t *testing.T) {
	dir := t.TempDir()
	s := openReady(t, dir)
	seedSuppliers(t, s, 2)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Crash residue of a checkpoint that never committed: a stray
	// next-generation log and a manifest temp file.
	stray, err := createLog(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	stray.f.Close()
	if err := os.WriteFile(filepath.Join(dir, "manifest-123.tmp"), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}

	re := openReady(t, dir)
	defer re.Close()
	if got := len(supplierRows(re)); got != 2 {
		t.Fatalf("recovered %d rows, want 2", got)
	}
	if _, err := os.Stat(walPath(dir, 2)); !os.IsNotExist(err) {
		t.Error("stale wal-2.log survived recovery")
	}
	if _, err := os.Stat(filepath.Join(dir, "manifest-123.tmp")); !os.IsNotExist(err) {
		t.Error("manifest temp file survived recovery")
	}
	if got := re.Generation(); got != 1 {
		t.Errorf("generation %d after an uncommitted checkpoint, want 1", got)
	}
}

func TestValueCodecRoundTrip(t *testing.T) {
	rows := []value.Row{
		{value.Int(0), value.Int(-1), value.Int(1<<62 + 7), value.Int(math.MinInt64), value.Int(math.MaxInt64), value.Int(63), value.Int(64)},
		{value.String_(""), value.String_("héllo, wörld"), value.String_("with\x00nul")},
		{value.Bool(true), value.Bool(false), value.Value{}},
		{},
	}
	for i, row := range rows {
		enc := appendRow(nil, row)
		dec, rest, err := decodeRow(nil, enc)
		if err != nil {
			t.Fatalf("row %d: decode: %v", i, err)
		}
		if len(rest) != 0 {
			t.Errorf("row %d: %d trailing bytes", i, len(rest))
		}
		if !valuetest.Same(nil, []value.Row{dec}, nil, []value.Row{row}) {
			t.Errorf("row %d: got %v want %v", i, dec, row)
		}
	}
}

func TestRecordCodecRoundTrip(t *testing.T) {
	recs := []record{
		{kind: recDDL, version: 17, sql: testDDL},
		{kind: recInsert, table: "SUPPLIER", row: value.Row{value.Int(1), value.Value{}, value.Bool(true)}},
		{kind: recCheckpoint, gen: 4, version: 99},
	}
	encode := func(r record) []byte {
		switch r.kind {
		case recDDL:
			return appendDDL(nil, r.version, r.sql)
		case recInsert:
			return appendInsert(nil, r.table, r.row)
		default:
			return appendCheckpoint(nil, r.gen, r.version)
		}
	}
	for i, want := range recs {
		got, err := decodeRecord(encode(want), nil)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		// The row by content (a decoded string lies elsewhere than the
		// literal it was encoded from), the other fields structurally.
		gotRow := got.row
		got.row = want.row
		if !valuetest.Same(nil, []value.Row{gotRow}, nil, []value.Row{want.row}) || !reflect.DeepEqual(got, want) {
			t.Errorf("record %d: got %+v with row %v, want %+v", i, got, gotRow, want)
		}
	}
	// Truncations and garbage must come back as ErrCorrupt, never panic.
	for i, rec := range recs {
		enc := encode(rec)
		for cut := 0; cut < len(enc); cut++ {
			if _, err := decodeRecord(enc[:cut], nil); err == nil && cut < len(enc) {
				// Some prefixes of a DDL record are themselves valid
				// (shorter SQL text); structural kinds must error.
				if rec.kind != recDDL {
					t.Errorf("record %d cut %d: truncated decode succeeded", i, cut)
				}
			}
		}
	}
	if _, err := decodeRecord([]byte{'Z', 1, 2}, nil); !errors.Is(err, ErrCorrupt) {
		t.Errorf("unknown kind: got %v, want ErrCorrupt", err)
	}
	if _, err := decodeRecord(nil, nil); !errors.Is(err, ErrCorrupt) {
		t.Errorf("empty payload: got %v, want ErrCorrupt", err)
	}
}

func TestWedgedStoreRefusesWrites(t *testing.T) {
	dir := t.TempDir()
	s := openReady(t, dir)
	seedSuppliers(t, s, 2)
	s.mu.Lock()
	s.wedge(errors.New("synthetic I/O failure"))
	s.mu.Unlock()
	if err := s.Insert("SUPPLIER", value.Row{value.Int(7), value.String_("S"), value.Int(0)}); !errors.Is(err, ErrWedged) {
		t.Errorf("insert on wedged store: got %v, want ErrWedged", err)
	}
	if err := s.Sync(); !errors.Is(err, ErrWedged) {
		t.Errorf("sync on wedged store: got %v, want ErrWedged", err)
	}
	// Reads stay alive.
	if got := len(supplierRows(s)); got != 2 {
		t.Errorf("heap reads broken on wedged store: %d rows", got)
	}
	s.Close()
	// Reopen recovers the durable prefix.
	re := openReady(t, dir)
	defer re.Close()
	if got := len(supplierRows(re)); got != 2 {
		t.Errorf("recovered %d rows, want 2", got)
	}
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}
