package storage_test

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"uniqopt/internal/catalog"
	"uniqopt/internal/engine"
	"uniqopt/internal/storage"
	"uniqopt/internal/value"
)

// TestSlabReadersAgree: on tables of one row, around one of the first
// chunk's doublings, just before, on and just after a chunk boundary,
// and one row into a third chunk, a table scan under batch sizes 1, 7
// and 1,024, Row(i), the key's tree and an ordered index Seek agree row
// for row, and no scan batch spans two chunks.
func TestSlabReadersAgree(t *testing.T) {
	schema, err := catalog.NewTable("T", []catalog.Column{
		{Name: "ID", Type: value.KindInt}, {Name: "NAME", Type: value.KindString}, {Name: "V", Type: value.KindInt}})
	if err != nil {
		t.Fatal(err)
	}
	if err := schema.AddKey(true, "ID"); err != nil {
		t.Fatal(err)
	}
	defer engine.SetBatchSize(engine.SetBatchSize(0))
	for _, n := range []int{1, 63, 64, 65, 1023, 1024, 1025, 2049} {
		tbl := storage.NewTable(schema)
		ix, err := tbl.CreateOrderedIndex("T_V", "V")
		if err != nil {
			t.Fatal(err)
		}
		kx, err := tbl.CreateOrderedIndex("T_ID", "ID") // the key's tree
		if err != nil {
			t.Fatal(err)
		}
		id := func(i int) int64 { return int64(i*7919%n) - 5 } // a permutation: keys in no order
		for i := 0; i < n; i++ {
			v := value.Int(int64(n - i))
			if i%5 == 0 {
				v = value.Null
			}
			if err := tbl.Insert(value.Row{value.Int(id(i)), value.String_(fmt.Sprint("row ", i)), v}); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < n; i++ {
			row := tbl.Row(i)
			if row[0].AsInt() != id(i) || row[1].AsString() != fmt.Sprint("row ", i) || len(row) != 3 || cap(row) != 3 {
				t.Fatalf("n=%d: Row(%d) = %v (cap %d)", n, i, row, cap(row))
			}
			if err := tbl.Validate(row); err == nil || !strings.Contains(err.Error(), "PRIMARY KEY") {
				t.Fatalf("n=%d: row %d's key is not refused again: %v", n, i, err)
			}
			key := value.Row{row[0]}
			if ord, _, ok := kx.At(kx.Seek(key, storage.Cursor{}), key); !ok || ord != i {
				t.Fatalf("n=%d: key Seek(%v) = %d, %v; want row %d", n, key, ord, ok, i)
			}
			if !row[2].IsNull() { // one row per non-NULL V
				key = value.Row{row[2]}
				if ord, _, ok := ix.At(ix.Seek(key, storage.Cursor{}), key); !ok || ord != i {
					t.Fatalf("n=%d: Seek(%v) = %d, %v; want row %d", n, key, ord, ok, i)
				}
			}
		}
		for _, bs := range []int{1, 7, 1024} {
			engine.SetBatchSize(bs)
			sc, st := engine.NewScratch(), &engine.Stats{}
			scan := engine.NewTableIter(sc, st, tbl, engine.QualifiedCols(tbl, "T"))
			i := 0
			for {
				b, err := scan.Next(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				if b == nil {
					break
				}
				if len(b) > bs || i/storage.ChunkRows != (i+len(b)-1)/storage.ChunkRows {
					t.Fatalf("n=%d batch %d: rows %d..%d in one batch", n, bs, i, i+len(b)-1)
				}
				for _, row := range b {
					if &row[0] != &tbl.Row(i)[0] || len(row) != 3 {
						t.Fatalf("n=%d batch %d: scan row %d is not the table's row", n, bs, i)
					}
					i++
				}
			}
			scan.Close()
			if scanned := st.Snapshot().RowsScanned; i != n || scanned != int64(n) {
				t.Errorf("n=%d batch %d: scanned %d rows, counted %d", n, bs, i, scanned)
			}
		}
	}
}
