package storage

import (
	"errors"

	"uniqopt/internal/catalog"
	"uniqopt/internal/sql/ast"
	"uniqopt/internal/value"
)

// ErrRecovering is returned by a Store that is still replaying its
// log: reads may proceed against the partially restored heap, but
// writes are refused until recovery finishes so the log never
// interleaves replayed history with new records. Servers surface it
// as a typed wire error instead of blocking the accept loop.
var ErrRecovering = errors.New("storage: recovering; writes refused until replay completes")

// ErrClosed is returned by operations on a Store after Close.
var ErrClosed = errors.New("storage: store is closed")

// Store is the write and durability surface of a database. Two
// implementations exist: the in-memory *DB (Heap returns the
// receiver; durability calls are no-ops) and the WAL-backed
// wal.Store, which logs every mutation before acknowledging it and
// replays the log through the same constraint-enforcing insert path
// on restart.
//
// Reads deliberately stay off the interface: the planner and executor
// keep scanning the concrete heap via Heap(), so a disk-backed store
// pays its durability cost only on the write path.
type Store interface {
	// Heap returns the in-memory table heap queries execute against.
	Heap() *DB

	// Catalog returns the schema catalog backing the heap.
	Catalog() *catalog.Catalog

	// ApplyDDL defines a table from its parsed CREATE TABLE statement
	// and attaches an empty stored table. sql is the statement's
	// canonical text, which durable stores append to their log.
	ApplyDDL(sql string, ct *ast.CreateTable) (*catalog.Table, error)

	// Insert validates a row against the table's constraints and
	// copies its cells into the table's next window (Table.Insert):
	// the caller keeps its row and may reuse it as soon as Insert
	// returns, and a refused row stores nothing. Durable stores log the
	// row after the heap accepts it; the row is committed once a later
	// Sync (or Close) returns.
	Insert(table string, row value.Row) error

	// Sync makes every acknowledged mutation durable (flush + fsync).
	Sync() error

	// Checkpoint seals the live log — complete, fsynced, never written
	// again — and starts a new one, so that the only file that is open
	// for write, and the only one a crash may leave torn, holds just
	// the mutations since the checkpoint. No row is rewritten, and a
	// restart still re-inserts every row.
	Checkpoint() error

	// Recover replays any persisted state. It must be called once
	// after opening a store that reports Recovering; on the in-memory
	// store it is a no-op.
	Recover() error

	// Recovering reports whether the store is still replaying its log.
	// While true, Insert and ApplyDDL fail with ErrRecovering.
	Recovering() bool

	// Close flushes, fsyncs, and releases the store's files. The heap
	// remains readable; further writes fail with ErrClosed.
	Close() error
}

// compile-time check: the in-memory DB is a Store.
var _ Store = (*DB)(nil)

// Heap returns db itself: the in-memory store is its own heap.
func (db *DB) Heap() *DB { return db }

// ApplyDDL defines ct in the catalog and attaches the stored table.
// The sql text is unused in memory; durable stores log it.
func (db *DB) ApplyDDL(sql string, ct *ast.CreateTable) (*catalog.Table, error) {
	schema, err := db.cat.DefineFromAST(ct)
	if err != nil {
		return nil, err
	}
	if err := db.AttachTable(schema); err != nil {
		return nil, err
	}
	return schema, nil
}

// Sync is a no-op: the in-memory store has no durability.
func (db *DB) Sync() error { return nil }

// Checkpoint is a no-op: there is no log to seal.
func (db *DB) Checkpoint() error { return nil }

// Recover is a no-op: there is nothing to replay.
func (db *DB) Recover() error { return nil }

// Recovering is always false for the in-memory store.
func (db *DB) Recovering() bool { return false }

// Close is a no-op: the heap stays usable for tests that keep
// reading after closing a DB handle.
func (db *DB) Close() error { return nil }
