// Package storage provides in-memory multiset heap tables with SQL2
// constraint enforcement on insert:
//
//   - column types and NOT NULL,
//   - CHECK table constraints under the true interpretation ⌈P⌉
//     (a row violates a CHECK only when it is definitely False),
//   - key constraints under the ≐ (null-equivalent) comparison: at
//     most one row may carry any particular combination of key values,
//     where NULL is treated as a single special value — the paper's
//     reading of SQL2 candidate keys ("only one tuple in R may have
//     K equal to Null"). Each key is checked on its own B+tree over its
//     columns, whose order puts NULL ≐ NULL together,
//   - FOREIGN KEYs, on the referenced key's tree.
//
// Because every insert is validated, any populated database is a valid
// instance in the sense of Theorem 1, which is what makes the
// equivalence tests in internal/core and internal/plan meaningful.
package storage

import (
	"fmt"

	"uniqopt/internal/catalog"
	"uniqopt/internal/eval"
	"uniqopt/internal/tvl"
	"uniqopt/internal/value"
)

// ChunkRows is the number of rows in one chunk of a table.
const ChunkRows = 1024

// firstChunkRows is the room a table's first chunk starts with; it
// doubles up to ChunkRows, so a small table holds a small chunk.
const firstChunkRows = 8

// Table is one stored base table: a multiset of rows plus a B+tree on
// each candidate key, which enforces it. Rows are stored in chunks of
// ChunkRows, filled in insertion order: row i is a capacity-clipped
// window of chunk i / ChunkRows's cells, the row's only heap home. Only
// the first chunk grows (firstChunkRows); every later one is allocated
// once. A stored cell is never written again — growing copies, and
// Truncate starts new chunks — so a window stays valid, and unchanged,
// for as long as a reader holds it.
type Table struct {
	Schema *catalog.Table
	chunks []*chunk
	n      int // rows published
	width  int
	// trees holds every B+tree over the rows: first those CREATE INDEX
	// named, in that order (trees[:named]), then keys' unnamed ones. A
	// key finds its tree by its columns, not by its place in Schema.Keys.
	trees []*OrderedIndex
	named int
	// db, when non-nil, is the owning database; it enables FOREIGN KEY
	// enforcement against sibling tables. Standalone tables created
	// with NewTable do not enforce foreign keys.
	db *DB
	// checks holds Schema.Checks compiled against the column ordinals,
	// parallel to it; extended when the schema gains a CHECK.
	checks []eval.Pred
}

// NewTable creates an empty table for the given schema.
func NewTable(schema *catalog.Table) *Table {
	return &Table{Schema: schema, width: len(schema.Columns)}
}

// chunk holds up to ChunkRows rows: their cells, row o at
// cells[o*width:], and beside them the windows of those filled, which a
// scan hands out as they lie (Span).
type chunk struct {
	cells []value.Value
	rows  []value.Row
}

// Len reports the number of stored rows.
func (t *Table) Len() int { return t.n }

// Row returns the i-th row: a window of the table's cells, which the
// caller must not modify.
func (t *Table) Row(i int) value.Row {
	o, w := i%ChunkRows*t.width, t.width
	return t.chunks[i/ChunkRows].cells[o : o+w : o+w]
}

// Span returns the windows of rows [i, j), which must lie in one chunk,
// in a capacity-clipped slice the caller must not modify.
func (t *Table) Span(i, j int) []value.Row {
	o := i % ChunkRows
	return t.chunks[i/ChunkRows].rows[o : o+j-i : o+j-i]
}

// compiledChecks returns the table's CHECK constraints compiled once
// against the schema's column ordinals, compiling any added since the
// last call (Schema.Checks only grows). The layout names the bare
// columns; a self-qualified reference (TABLE.COL, which AddCheck admits
// for this table only) finds its column through eval's fall-back from
// the qualified to the bare name.
func (t *Table) compiledChecks() []eval.Pred {
	if len(t.checks) < len(t.Schema.Checks) {
		cols := make([]string, len(t.Schema.Columns))
		for i, c := range t.Schema.Columns {
			cols[i] = c.Name
		}
		for _, chk := range t.Schema.Checks[len(t.checks):] {
			t.checks = append(t.checks, eval.Prepare(chk, cols, nil).Arm(nil, nil, nil).Pred)
		}
	}
	return t.checks
}

// Validate checks a row against all constraints without inserting it.
func (t *Table) Validate(row value.Row) error {
	s := t.Schema
	if len(row) != len(s.Columns) {
		return fmt.Errorf("storage: %s: row has %d values, want %d", s.Name, len(row), len(s.Columns))
	}
	for i, col := range s.Columns {
		v := row[i]
		if v.IsNull() {
			if col.NotNull {
				return fmt.Errorf("storage: %s.%s: NULL violates NOT NULL", s.Name, col.Name)
			}
			continue
		}
		if v.Kind() != col.Type {
			return fmt.Errorf("storage: %s.%s: value %s has type %s, want %s",
				s.Name, col.Name, v, v.Kind(), col.Type)
		}
	}
	// CHECKs hold under the true interpretation: Unknown passes.
	for i, chk := range t.compiledChecks() {
		truth, err := chk(row)
		if err != nil {
			return fmt.Errorf("storage: %s: CHECK %s: %w", s.Name, s.Checks[i].SQL(), err)
		}
		if !tvl.TrueInterpreted(truth) {
			return fmt.Errorf("storage: %s: row %s violates CHECK (%s)", s.Name, row, s.Checks[i].SQL())
		}
	}
	for _, k := range s.Keys {
		if t.tree(k.Columns, 0).find(row, k.Columns) >= 0 {
			kind := "UNIQUE"
			if k.Primary {
				kind = "PRIMARY KEY"
			}
			return fmt.Errorf("storage: %s: row %s violates %s (%v)",
				s.Name, row, kind, s.KeyColumnNames(k))
		}
	}
	if t.db != nil {
		for _, fk := range s.ForeignKeys {
			if err := t.db.checkForeignKey(s, fk, row); err != nil {
				return err
			}
		}
	}
	return nil
}

// checkForeignKey enforces one inclusion dependency for a candidate
// row: if every FK column is non-NULL, the referenced key value must
// exist. Any NULL component makes the dependency vacuous (SQL's MATCH
// SIMPLE rule).
func (db *DB) checkForeignKey(owner *catalog.Table, fk catalog.ForeignKey, row value.Row) error {
	for _, ci := range fk.Columns {
		if row[ci].IsNull() {
			return nil
		}
	}
	ref, ok := db.Table(fk.RefTable)
	if !ok {
		return fmt.Errorf("storage: %s: FOREIGN KEY references unattached table %s",
			owner.Name, fk.RefTable)
	}
	if ref.tree(ref.Schema.Keys[fk.RefKey].Columns, 0).find(row, fk.Columns) < 0 {
		return fmt.Errorf("storage: %s: row %s violates FOREIGN KEY into %s (no row with key %s)",
			owner.Name, row, fk.RefTable, project(row, fk.Columns))
	}
	return nil
}

// project copies out the columns cols of row, for an error message.
func project(row value.Row, cols []int) value.Row {
	out := make(value.Row, len(cols))
	for i, c := range cols {
		out[i] = row[c]
	}
	return out
}

// Insert validates a row and stores a copy of its cells; the caller
// keeps ownership of its argument. A refused row stores nothing.
func (t *Table) Insert(row value.Row) error {
	if err := t.Validate(row); err != nil {
		return err
	}
	t.store(row)
	return nil
}

// store copies a validated row's cells into the next window, publishes
// it and files it in every tree, which reads the key columns from the
// stored cells.
func (t *Table) store(row value.Row) {
	idx, o := t.n, t.n%ChunkRows
	if o == 0 {
		t.chunks = append(t.chunks, &chunk{})
	}
	c := t.chunks[idx/ChunkRows]
	if o == len(c.rows) {
		// New or full: room for twice the rows so far, within
		// [firstChunkRows, ChunkRows]; cells copied, windows re-pointed.
		n := min(ChunkRows, max(firstChunkRows, 2*idx))
		cells := make([]value.Value, n*t.width)
		copy(cells, c.cells)
		c.cells, c.rows = cells, make([]value.Row, n)
		for r := range o {
			c.rows[r] = t.Row(idx - o + r)
		}
	}
	w := t.Row(idx)
	copy(w, row)
	c.rows[o] = w
	t.n++
	for _, ix := range t.trees {
		ix.insert(idx)
	}
}

// Truncate removes all rows. Every tree is emptied but kept; the chunks
// are dropped, not reused, so a window read before stays intact.
func (t *Table) Truncate() {
	t.chunks, t.n = nil, 0
	for _, ix := range t.trees {
		ix.reset()
	}
}

// DB is a collection of stored tables over a catalog. It is the
// in-memory Store: writes apply directly to the heap and durability
// calls are no-ops.
type DB struct {
	cat    *catalog.Catalog
	tables map[string]*Table
}

// Catalog returns the schema catalog the database stores rows for.
func (db *DB) Catalog() *catalog.Catalog { return db.cat }

// NewDB creates an empty database over cat. A stored table is created
// for every table currently in the catalog.
func NewDB(cat *catalog.Catalog) *DB {
	db := &DB{cat: cat, tables: make(map[string]*Table)}
	for _, name := range cat.TableNames() {
		schema, _ := cat.Table(name)
		t := NewTable(schema)
		t.db = db
		db.tables[name] = t
	}
	return db
}

// AttachTable creates an empty stored table for a schema defined in
// the catalog after the DB was opened. It is a no-op if the table is
// already attached.
func (db *DB) AttachTable(schema *catalog.Table) error {
	if _, ok := db.cat.Table(schema.Name); !ok {
		return fmt.Errorf("storage: schema %s is not in the catalog", schema.Name)
	}
	if _, exists := db.tables[schema.Name]; exists {
		return nil
	}
	t := NewTable(schema)
	t.db = db
	db.tables[schema.Name] = t
	return nil
}

// Table returns the stored table with the given name.
func (db *DB) Table(name string) (*Table, bool) {
	if t, ok := db.tables[name]; ok {
		return t, true // already in the catalog's spelling: no copy to fold
	}
	t, ok := db.tables[normalize(name)]
	return t, ok
}

// MustTable returns the stored table or panics; for tests and
// generators over known schemas.
func (db *DB) MustTable(name string) *Table {
	t, ok := db.Table(name)
	if !ok {
		panic(fmt.Sprintf("storage: unknown table %s", name))
	}
	return t
}

// Insert inserts a copy of a row into the named table (Table.Insert).
func (db *DB) Insert(table string, row value.Row) error {
	t, ok := db.Table(table)
	if !ok {
		return fmt.Errorf("storage: unknown table %s", table)
	}
	return t.Insert(row)
}

func normalize(name string) string {
	b := []byte(name)
	for i, c := range b {
		if 'a' <= c && c <= 'z' {
			b[i] = c - 'a' + 'A'
		}
	}
	return string(b)
}
