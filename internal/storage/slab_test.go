package storage

import (
	"strings"
	"testing"

	"uniqopt/internal/catalog"
	"uniqopt/internal/sql/ast"
	"uniqopt/internal/sql/parser"
	"uniqopt/internal/value"
)

// slabDB is a parent table P and a child C whose rows can break each
// kind of constraint an insert enforces.
func slabDB(t *testing.T) *DB {
	t.Helper()
	c := catalog.New()
	for _, ddl := range []string{
		`CREATE TABLE P (K INTEGER, PRIMARY KEY (K))`,
		`CREATE TABLE C (ID INTEGER, PK INTEGER, N VARCHAR NOT NULL, X INTEGER,
			PRIMARY KEY (ID), FOREIGN KEY (PK) REFERENCES P (K), CHECK (X > 0))`,
	} {
		st, err := parser.ParseStatement(ddl)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.DefineFromAST(st.(*ast.CreateTable)); err != nil {
			t.Fatal(err)
		}
	}
	db := NewDB(c)
	if err := db.Insert("P", value.Row{value.Int(1)}); err != nil {
		t.Fatal(err)
	}
	return db
}

func childRow(id int64) value.Row {
	return value.Row{value.Int(id), value.Int(1), value.String_("n"), value.Int(id + 1)}
}

// TestRefusedInsertLeavesNoRow: an INSERT refused for its key, a
// foreign key, a CHECK, NOT NULL, a type or its arity leaves the count
// where it was and starts no chunk, even on a chunk boundary, and the
// next accepted row takes the slot — a copy, which a later write to the
// caller's row does not reach.
func TestRefusedInsertLeavesNoRow(t *testing.T) {
	db := slabDB(t)
	c := db.MustTable("C")
	for i := int64(0); i < ChunkRows; i++ {
		if err := c.Insert(childRow(i)); err != nil {
			t.Fatal(err)
		}
	}
	refused := map[string]value.Row{
		"key":         childRow(5),
		"foreign key": {value.Int(9000), value.Int(2), value.String_("n"), value.Int(1)},
		"check":       {value.Int(9000), value.Int(1), value.String_("n"), value.Int(0)},
		"not null":    {value.Int(9000), value.Int(1), value.Null, value.Int(1)},
		"type":        {value.Int(9000), value.Int(1), value.Int(3), value.Int(1)},
		"arity":       {value.Int(9000), value.Int(1)},
	}
	for kind, row := range refused {
		if err := c.Insert(row); err == nil {
			t.Errorf("%s: row %v accepted", kind, row)
		}
		if c.Len() != ChunkRows || len(c.chunks) != 1 {
			t.Fatalf("%s: refused row left %d rows in %d chunks", kind, c.Len(), len(c.chunks))
		}
	}
	next := childRow(9000)
	if err := c.Insert(next); err != nil {
		t.Fatal(err)
	}
	next[2] = value.String_("changed by the caller")
	if c.Len() != ChunkRows+1 || keyRow(c, 0, value.Row{value.Int(9000)}) != ChunkRows ||
		!value.NullEqRows(c.Row(ChunkRows), childRow(9000)) {
		t.Errorf("the next accepted row: %d rows, row %d = %v", c.Len(), ChunkRows, c.Row(ChunkRows))
	}
}

// TestTruncateThenReload: Truncate empties the table and its indexes;
// a window read before it keeps its cells, and a reload of other rows
// is scanned, looked up and sought as if the table were new.
func TestTruncateThenReload(t *testing.T) {
	db := slabDB(t)
	c := db.MustTable("C")
	ix, err := c.CreateOrderedIndex("C_X", "X")
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < ChunkRows+1; i++ {
		if err := c.Insert(childRow(i)); err != nil {
			t.Fatal(err)
		}
	}
	kept := c.Row(ChunkRows)
	c.Truncate()
	if c.Len() != 0 || ix.Len() != 0 || keyRow(c, 0, value.Row{value.Int(3)}) >= 0 {
		t.Fatalf("after Truncate: %d rows, %d index entries", c.Len(), ix.Len())
	}
	for i := int64(0); i < ChunkRows+2; i++ {
		row := childRow(-i)
		row[3] = value.Int(2*ChunkRows - i) // descending X: every insert descends the index
		if err := c.Insert(row); err != nil {
			t.Fatal(err)
		}
	}
	if !value.NullEqRows(kept, childRow(ChunkRows)) {
		t.Errorf("a window read before Truncate changed: %v", kept)
	}
	for i := 0; i < c.Len(); i++ {
		id := c.Row(i)[0]
		if id.AsInt() != -int64(i) || keyRow(c, 0, value.Row{id}) != i {
			t.Fatalf("row %d: %v, keyRow %d", i, c.Row(i), keyRow(c, 0, value.Row{id}))
		}
		x := value.Row{c.Row(i)[3]}
		if ord, _, ok := ix.At(ix.Seek(x, Cursor{}), x); !ok || ord != i {
			t.Fatalf("Seek(%v) = %d, %v; want row %d", x, ord, ok, i)
		}
	}
	if !strings.HasPrefix(c.Row(0)[2].AsString(), "n") {
		t.Errorf("reloaded row 0 = %v", c.Row(0))
	}
}

// TestFirstChunkGrowsUnderHeldWindows: a table's first chunk starts
// with room for firstChunkRows and doubles up to ChunkRows. Each growth
// copies the cells and re-points the stored windows, while a row and a
// scan span read before it keep their cells, which are never written
// again; every later chunk is full size from the start.
func TestFirstChunkGrowsUnderHeldWindows(t *testing.T) {
	c := slabDB(t).MustTable("C")
	var row0 value.Row
	var span []value.Row
	room := firstChunkRows
	for i := int64(0); i < 2*ChunkRows; i++ {
		if i == int64(room) && room < ChunkRows {
			row0, span = c.Row(0), c.Span(0, room)
		}
		if err := c.Insert(childRow(i)); err != nil {
			t.Fatal(err)
		}
		if i == int64(room) && room < ChunkRows {
			room *= 2
			if got := len(c.chunks[0].rows); got != room || len(c.chunks[0].cells) != room*c.width {
				t.Fatalf("after %d rows the first chunk has room for %d, want %d", i+1, got, room)
			}
			if &row0[0] == &c.Row(0)[0] || &span[0][0] != &row0[0] {
				t.Fatalf("after %d rows: row 0 was not copied, or the span held does not read the old cells", i+1)
			}
			for o, r := range span {
				if !value.NullEqRows(r, childRow(int64(o))) || !value.NullEqRows(c.Row(o), r) {
					t.Fatalf("after %d rows: held row %d = %v, stored %v", i+1, o, r, c.Row(o))
				}
			}
		}
	}
	if len(c.chunks) != 2 || len(c.chunks[1].rows) != ChunkRows {
		t.Fatalf("%d chunks, the second with room for %d", len(c.chunks), len(c.chunks[1].rows))
	}
	for i := 0; i < c.Len(); i++ {
		if !value.NullEqRows(c.Row(i), childRow(int64(i))) || keyRow(c, 0, value.Row{value.Int(int64(i))}) != i {
			t.Fatalf("row %d = %v", i, c.Row(i))
		}
	}
}
