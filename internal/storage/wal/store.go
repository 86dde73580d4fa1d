package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"time"

	"uniqopt/internal/fault"
	"uniqopt/internal/sql/ast"
	"uniqopt/internal/sql/parser"
	"uniqopt/internal/storage"
	"uniqopt/internal/value"

	"uniqopt/internal/catalog"
)

// Options tune a WAL store.
type Options struct {
	// CheckpointEvery seals the live log and starts the next
	// generation after this many appended records (0 = only on
	// explicit Checkpoint calls).
	CheckpointEvery int
}

// DefaultOptions is what uniqopt.OpenPersistent uses.
var DefaultOptions = Options{CheckpointEvery: 1 << 16}

// RecoveryStats reports what Recover did, for operators and tests.
// SnapshotTables and SnapshotRows count what the sealed generations
// supplied — the state as of the last checkpoint — and ReplayedDDL and
// ReplayedRows what the live log added since.
type RecoveryStats struct {
	Generation     uint64
	SnapshotTables int
	SnapshotRows   int
	ReplayedDDL    int
	ReplayedRows   int
	TornTail       bool
	TornBytes      int64
	Duration       time.Duration
}

// String renders the stats the way uniqoptd logs them.
func (st RecoveryStats) String() string {
	return fmt.Sprintf("gen %d: sealed %d tables/%d rows, replayed %d DDL/%d rows, torn tail %v (%d bytes), %s",
		st.Generation, st.SnapshotTables, st.SnapshotRows, st.ReplayedDDL, st.ReplayedRows,
		st.TornTail, st.TornBytes, st.Duration.Round(time.Microsecond))
}

// Store state machine. A store opens recovering, becomes ready after
// Recover, and ends closed. A write-path I/O failure wedges it:
// reads stay up, writes are refused, and a close/reopen cycle
// recovers the durable prefix.
const (
	stateRecovering = iota
	stateReady
	stateClosed
)

// Store is the disk-backed storage.Store: an in-memory heap for
// reads, fronted by the write-ahead log for durability. All methods
// are safe for concurrent use; writes serialize on one mutex, which
// matches the server's DDL-lock discipline.
type Store struct {
	dir  string
	opts Options
	heap *storage.DB

	mu      sync.Mutex
	state   int
	wedged  error
	log     *logFile
	gen     uint64   // the live generation
	sealed  []uint64 // the generations before it, in replay order
	appends int      // records since the last checkpoint
	stats   RecoveryStats
}

var _ storage.Store = (*Store)(nil)

// Open prepares a store over the data directory without replaying
// it: the heap is empty and the store reports Recovering until
// Recover is called. Servers use this split to bind their listener
// first and replay in the background, refusing writes with
// storage.ErrRecovering instead of refusing connections.
func Open(dir string, opts Options) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &Store{
		dir:   dir,
		opts:  opts,
		heap:  storage.NewDB(catalog.New()),
		state: stateRecovering,
	}, nil
}

// Heap returns the in-memory tables queries execute against. During
// recovery it is visibly partial; the server gates reads behind its
// readiness status instead of blocking here.
func (s *Store) Heap() *storage.DB { return s.heap }

// Catalog returns the schema catalog backing the heap.
func (s *Store) Catalog() *catalog.Catalog { return s.heap.Catalog() }

// Recovering reports whether Recover has yet to complete.
func (s *Store) Recovering() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state == stateRecovering
}

// Stats reports what the last Recover did.
func (s *Store) Stats() RecoveryStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Generation reports the live generation: wal-<Generation()>.log is the
// log appends go to.
func (s *Store) Generation() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.gen
}

// Recover replays persisted state into the heap: the sealed
// generations in order, then the live log, every row through the same
// constraint-enforcing insert path live writes use — so recovery
// re-proves the valid-instance invariant instead of assuming it. A
// torn tail of the live log (crash residue past the last complete
// frame) is truncated; a sealed log that ends torn, interior
// corruption anywhere, a log the manifest names and the directory
// lacks, and a directory in the old snapshot format abort with a typed
// error and the store stays in the recovering state, readable but
// write-refusing.
func (s *Store) Recover() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch s.state {
	case stateReady:
		return fmt.Errorf("wal: store already recovered")
	case stateClosed:
		return storage.ErrClosed
	}
	start := time.Now()

	old := filepath.Join(s.dir, oldSnapshotName)
	if _, err := os.Stat(old); err == nil {
		return fmt.Errorf("%w: %s", ErrOldFormat, old)
	}
	m, err := loadManifest(s.dir)
	if err != nil {
		return err
	}
	gens, tmps, err := scanDir(s.dir)
	if err != nil {
		return err
	}
	// Leftover manifest temp files are failed checkpoint attempts; the
	// live manifest is authoritative.
	for _, tmp := range tmps {
		os.Remove(filepath.Join(s.dir, tmp))
	}
	if m == nil {
		// No manifest: a fresh directory, or a first open that crashed
		// between creating wal-1.log and naming it. Anything else means
		// the manifest was lost.
		if len(gens) > 1 || (len(gens) == 1 && gens[0] != 1) {
			return fmt.Errorf("%w: no %s, have logs %v", ErrMissingGeneration, manifestName, gens)
		}
		if len(gens) == 0 {
			if s.log, err = createLog(s.dir, 1); err != nil {
				return err
			}
			gens = []uint64{1}
		}
		m = &manifest{live: 1, version: s.heap.Catalog().Version()}
		if _, err := writeManifest(s.dir, *m); err != nil {
			return err
		}
	}
	s.gen, s.sealed = m.live, m.sealed

	// A log the manifest names must be there. One it does not name is
	// crash residue of a checkpoint that never committed: the next
	// generation's log, whose manifest never landed.
	named := append(slices.Clone(m.sealed), m.live)
	for _, g := range named {
		if _, ok := slices.BinarySearch(gens, g); !ok {
			return fmt.Errorf("%w: %s names %s", ErrMissingGeneration, manifestName, walName(g))
		}
	}
	for _, g := range gens {
		if _, ok := slices.BinarySearch(named, g); !ok {
			if err := os.Remove(walPath(s.dir, g)); err != nil {
				return err
			}
		}
	}

	var stats RecoveryStats
	for _, g := range m.sealed {
		// Sealed means fsynced in full before the manifest named it so:
		// nothing about it may be torn.
		path := walPath(s.dir, g)
		outcome, err := scanLog(path, g, func(rec record) error {
			return s.replayRecord(rec, g, &stats.SnapshotTables, &stats.SnapshotRows)
		})
		if err != nil {
			return err
		}
		if outcome.torn {
			return fmt.Errorf("%w: sealed %s ends in a torn frame at offset %d", ErrCorrupt, path, outcome.goodSize)
		}
	}
	s.heap.Catalog().RestoreVersion(m.version)

	if s.log == nil { // else created above, empty
		if err := s.openLive(&stats); err != nil {
			return err
		}
	}

	stats.Generation = s.gen
	stats.Duration = time.Since(start)
	s.stats = stats
	s.state = stateReady
	return nil
}

// openLive replays the live log, cuts off a torn tail and opens the
// file for appending.
func (s *Store) openLive(stats *RecoveryStats) error {
	path := walPath(s.dir, s.gen)
	outcome, err := scanLog(path, s.gen, func(rec record) error {
		return s.replayRecord(rec, s.gen, &stats.ReplayedDDL, &stats.ReplayedRows)
	})
	if err != nil {
		return err
	}
	if outcome.torn {
		// Crash residue past the last complete frame: records there
		// were never sync-acknowledged, so truncation loses nothing
		// that was promised.
		stats.TornTail, stats.TornBytes = true, outcome.tornBytes
		if outcome.goodSize < headerLen {
			// The creation itself was torn: write the header again.
			if err := os.Remove(path); err != nil {
				return err
			}
			s.log, err = createLog(s.dir, s.gen)
			return err
		}
		if err := truncateLog(path, outcome.goodSize); err != nil {
			return err
		}
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	s.log = &logFile{f: f, bw: newLogWriter(f), path: path, gen: s.gen}
	return nil
}

// replayRecord applies one record of log generation gen through the
// live write paths, counting it in *ddl or *rows.
func (s *Store) replayRecord(rec record, gen uint64, ddl, rows *int) error {
	switch rec.kind {
	case recDDL:
		ct, err := parseCreate(rec.sql)
		if err != nil {
			return fmt.Errorf("%w: DDL %q: %v", ErrReplay, rec.sql, err)
		}
		if _, err := s.heap.ApplyDDL(rec.sql, ct); err != nil {
			return fmt.Errorf("%w: DDL %q: %v", ErrReplay, rec.sql, err)
		}
		s.heap.Catalog().RestoreVersion(rec.version)
		*ddl++
	case recInsert:
		// The heap copies the row out of the decoder's buffer.
		if err := s.heap.Insert(rec.table, rec.row); err != nil {
			return fmt.Errorf("%w: %v", ErrReplay, err)
		}
		*rows++
	case recCheckpoint:
		if rec.gen != gen {
			return fmt.Errorf("%w: checkpoint record names generation %d in log %d", ErrCorrupt, rec.gen, gen)
		}
	}
	return nil
}

// writable returns the typed refusal for the store's current state,
// or nil when writes may proceed.
func (s *Store) writable() error {
	switch s.state {
	case stateRecovering:
		return storage.ErrRecovering
	case stateClosed:
		return storage.ErrClosed
	}
	if s.wedged != nil {
		return fmt.Errorf("%w (cause: %v)", ErrWedged, s.wedged)
	}
	return nil
}

// wedge records the first write-path failure; later writes are
// refused until the store is reopened.
func (s *Store) wedge(err error) {
	if s.wedged == nil {
		s.wedged = err
	}
}

// ApplyDDL defines a table, logs the statement, and fsyncs: schema
// changes are rare and immediately durable.
func (s *Store) ApplyDDL(sql string, ct *ast.CreateTable) (*catalog.Table, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.writable(); err != nil {
		return nil, err
	}
	schema, err := s.heap.ApplyDDL(sql, ct)
	if err != nil {
		return nil, err
	}
	if err := s.log.append(appendDDL(s.log.frame(), s.heap.Catalog().Version(), sql)); err != nil {
		s.wedge(err)
		return nil, err
	}
	if err := s.log.sync(); err != nil {
		s.wedge(err)
		return nil, err
	}
	s.appends++
	return schema, nil
}

// Insert validates the row against every constraint (the heap path),
// then logs it. The row is durable — and may be acknowledged —
// after the next Sync; batching appends between syncs is the group
// commit that keeps bulk loads off the fsync floor. The heap stores a
// copy: the caller may reuse its slice.
func (s *Store) Insert(table string, row value.Row) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.writable(); err != nil {
		return err
	}
	t, ok := s.heap.Table(table)
	if !ok {
		return fmt.Errorf("storage: unknown table %s", table)
	}
	// Heap first: it enforces the constraints, and a row the heap
	// refuses must never reach the log (replay would refuse it too).
	// The crash window between heap and log loses only rows that
	// were never acknowledged.
	if err := t.Insert(row); err != nil {
		return err
	}
	if err := s.log.append(appendInsert(s.log.frame(), t.Schema.Name, row)); err != nil {
		s.wedge(err)
		return err
	}
	s.appends++
	if s.opts.CheckpointEvery > 0 && s.appends >= s.opts.CheckpointEvery {
		// Opportunistic checkpoint; a failed attempt leaves the
		// current generation live and is retried on a later write.
		if err := s.checkpointLocked(); err != nil && s.wedged != nil {
			return err
		}
	}
	return nil
}

// Sync flushes buffered appends and fsyncs the log — the durability
// barrier every acknowledgement waits behind.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.writable(); err != nil {
		return err
	}
	if !s.log.dirty {
		return nil
	}
	if err := s.log.sync(); err != nil {
		s.wedge(err)
		return err
	}
	return nil
}

// Checkpoint seals the live log and starts the next generation. It
// rewrites no row: what it bounds is the one file that is open for
// write and may end torn after a crash — everything sealed is complete,
// fsynced and never touched again. It does not shorten a restart, which
// re-inserts every row either way.
func (s *Store) Checkpoint() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.writable(); err != nil {
		return err
	}
	return s.checkpointLocked()
}

// checkpointLocked runs the generation handoff under s.mu:
//
//  1. fsync the live log wal-G.log: from here on it is complete;
//  2. create and fsync wal-(G+1).log with its checkpoint marker;
//  3. write the manifest naming G sealed and G+1 live (temp + fsync +
//     atomic rename + dir fsync) — the commit point of the checkpoint.
//
// A crash or failure before step 3's rename leaves generation G live
// (the stray new log is deleted at recovery); after it, G is sealed
// and G+1 live. No window loses acknowledged records, and no step
// writes a row again.
func (s *Store) checkpointLocked() error {
	if s.log.dirty {
		if err := s.log.sync(); err != nil {
			s.wedge(err)
			return err
		}
	}
	if err := fault.Point(FaultCheckpointNewLog); err != nil {
		return fmt.Errorf("wal: checkpoint: %w", err)
	}
	newLog, err := createLog(s.dir, s.gen+1)
	if err != nil {
		return fmt.Errorf("wal: checkpoint: %w", err)
	}
	abort := func(err error) error {
		newLog.f.Close()
		os.Remove(newLog.path)
		return err
	}
	version := s.heap.Catalog().Version()
	if err := newLog.append(appendCheckpoint(newLog.frame(), s.gen+1, version)); err != nil {
		return abort(err)
	}
	if err := newLog.sync(); err != nil {
		return abort(err)
	}
	sealed := append(s.sealed, s.gen)
	renamed, err := writeManifest(s.dir, manifest{live: s.gen + 1, sealed: sealed, version: version})
	if !renamed {
		return abort(err)
	}
	// Commit point passed: MANIFEST names generation G+1 live.
	old := s.log
	s.log, s.sealed = newLog, sealed
	s.gen++
	s.appends = 0
	old.f.Close() // synced in step 1, nothing buffered; sealed from here on
	if err != nil {
		// The rename happened but the directory fsync did not: which
		// manifest a crash would leave is unknown, so nothing more may
		// be acknowledged until a reopen has read the answer.
		s.wedge(err)
	}
	return err
}

// Close makes everything acknowledged durable and releases the log
// file. The heap stays readable. Close after Close is a no-op.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.state == stateClosed {
		return nil
	}
	state := s.state
	s.state = stateClosed
	if s.log == nil {
		return nil
	}
	if s.wedged != nil || state == stateRecovering {
		// The buffer's relationship to the file is unknown (or there
		// is nothing promised); don't risk appending frames after a
		// torn tail — recovery owns this file now.
		return s.log.f.Close()
	}
	return s.log.close()
}

// scanDir lists the wal generations, ascending, and leftover manifest
// temp files in dir.
func scanDir(dir string) (gens []uint64, tmps []string, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	for _, e := range entries {
		if g, ok := parseWalName(e.Name()); ok {
			gens = append(gens, g)
		}
		if strings.HasPrefix(e.Name(), "manifest-") && strings.HasSuffix(e.Name(), ".tmp") {
			tmps = append(tmps, e.Name())
		}
	}
	slices.Sort(gens)
	return gens, tmps, nil
}

// truncateLog cuts the file to size and fsyncs, removing crash
// residue past the last complete frame.
func truncateLog(path string, size int64) error {
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return err
	}
	if err := f.Truncate(size); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// parseCreate parses one CREATE TABLE statement.
func parseCreate(sql string) (*ast.CreateTable, error) {
	st, err := parser.ParseStatement(sql)
	if err != nil {
		return nil, err
	}
	ct, ok := st.(*ast.CreateTable)
	if !ok {
		return nil, fmt.Errorf("statement is %T, not CREATE TABLE", st)
	}
	return ct, nil
}
