package storage

import (
	"testing"

	"uniqopt/internal/value"
)

func indexedTable(t *testing.T) *Table {
	t.Helper()
	db := paperDBForIndex(t)
	tbl := db.MustTable("PARTS")
	for sno := int64(1); sno <= 5; sno++ {
		for pno := int64(1); pno <= 4; pno++ {
			row := value.Row{value.Int(sno), value.Int(pno),
				value.String_("p"), value.Int(sno*100 + pno), value.String_(color(pno))}
			if err := tbl.Insert(row); err != nil {
				t.Fatal(err)
			}
		}
	}
	return tbl
}

func color(pno int64) string {
	if pno%2 == 0 {
		return "RED"
	}
	return "BLUE"
}

// paperDBForIndex builds a FK-free schema so fixture rows stand alone.
func paperDBForIndex(t *testing.T) *DB {
	t.Helper()
	c := mustCatalog(t, []string{
		`CREATE TABLE PARTS (SNO INTEGER, PNO INTEGER, PNAME VARCHAR,
			OEM-PNO INTEGER, COLOR VARCHAR, PRIMARY KEY (SNO, PNO))`,
	})
	return NewDB(c)
}

func TestCreateOrderedIndexValidation(t *testing.T) {
	tbl := indexedTable(t)
	if _, err := tbl.CreateOrderedIndex("", "SNO"); err == nil {
		t.Error("empty name should fail")
	}
	if _, err := tbl.CreateOrderedIndex("IX"); err == nil {
		t.Error("no columns should fail")
	}
	if _, err := tbl.CreateOrderedIndex("IX", "NOPE"); err == nil {
		t.Error("unknown column should fail")
	}
	if _, err := tbl.CreateOrderedIndex("IX", "SNO"); err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.CreateOrderedIndex("ix", "PNO"); err == nil {
		t.Error("duplicate (case-insensitive) name should fail")
	}
}

func TestIndexBuildsOverExistingRows(t *testing.T) {
	tbl := indexedTable(t)
	ix, err := tbl.CreateOrderedIndex("COLOR_IX", "COLOR")
	if err != nil {
		t.Fatal(err)
	}
	if ix.Len() != tbl.Len() {
		t.Errorf("index entries = %d, want %d", ix.Len(), tbl.Len())
	}
	rows, err := ix.Lookup(value.Row{value.String_("RED")})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 { // pno 2 and 4 of 5 suppliers
		t.Errorf("RED rows = %d, want 10", len(rows))
	}
	for _, ri := range rows {
		if tbl.Row(ri)[4].AsString() != "RED" {
			t.Fatalf("row %d is not RED", ri)
		}
	}
}

func TestIndexMaintainedOnInsert(t *testing.T) {
	tbl := indexedTable(t)
	ix, err := tbl.CreateOrderedIndex("SNO_IX", "SNO", "PNO")
	if err != nil {
		t.Fatal(err)
	}
	before := ix.Len()
	if err := tbl.Insert(value.Row{value.Int(9), value.Int(1),
		value.String_("p"), value.Int(901), value.String_("RED")}); err != nil {
		t.Fatal(err)
	}
	if ix.Len() != before+1 {
		t.Error("insert did not maintain the index")
	}
	rows, err := ix.Lookup(value.Row{value.Int(9), value.Int(1)})
	if err != nil || len(rows) != 1 {
		t.Errorf("composite lookup = %v, %v", rows, err)
	}
	// Prefix lookup.
	rows, err = ix.Lookup(value.Row{value.Int(2)})
	if err != nil || len(rows) != 4 {
		t.Errorf("prefix lookup = %d rows, %v", len(rows), err)
	}
	// Over-long prefix is an error.
	if _, err := ix.Lookup(value.Row{value.Int(1), value.Int(1), value.Int(1)}); err == nil {
		t.Error("over-long prefix should fail")
	}
	if _, err := ix.Lookup(value.Row{}); err == nil {
		t.Error("empty prefix should fail")
	}
}

func TestIndexRangeScan(t *testing.T) {
	tbl := indexedTable(t)
	ix, err := tbl.CreateOrderedIndex("SNO_IX", "SNO")
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := value.Int(2), value.Int(4)
	rows := ix.Range(&lo, &hi)
	if len(rows) != 12 { // suppliers 2,3,4 × 4 parts
		t.Errorf("range rows = %d, want 12", len(rows))
	}
	// Open-ended ranges.
	if got := len(ix.Range(nil, &lo)); got != 8 { // suppliers 1,2
		t.Errorf("open-low range = %d, want 8", got)
	}
	if got := len(ix.Range(&hi, nil)); got != 8 { // suppliers 4,5
		t.Errorf("open-high range = %d, want 8", got)
	}
	if got := len(ix.Range(nil, nil)); got != 20 {
		t.Errorf("full range = %d, want 20", got)
	}
	// Inverted range is empty.
	if got := len(ix.Range(&hi, &lo)); got != 0 {
		t.Errorf("inverted range = %d, want 0", got)
	}
}

func TestIndexRangeExcludesNulls(t *testing.T) {
	c := mustCatalog(t, []string{
		`CREATE TABLE T (A INTEGER, B INTEGER, PRIMARY KEY (A))`,
	})
	db := NewDB(c)
	tbl := db.MustTable("T")
	ix, err := tbl.CreateOrderedIndex("B_IX", "B")
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 4; i++ {
		b := value.Value(value.Int(i))
		if i == 2 {
			b = value.Null
		}
		if err := tbl.Insert(value.Row{value.Int(i), b}); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(ix.Range(nil, nil)); got != 3 {
		t.Errorf("NULLs must be excluded from ranges: %d, want 3", got)
	}
	lo := value.Int(1)
	if got := len(ix.Range(&lo, nil)); got != 3 {
		t.Errorf("range = %d, want 3", got)
	}
}

func TestIndexTruncate(t *testing.T) {
	tbl := indexedTable(t)
	ix, _ := tbl.CreateOrderedIndex("SNO_IX", "SNO")
	tbl.Truncate()
	if ix.Len() != 0 {
		t.Error("truncate must empty indexes")
	}
	if err := tbl.Insert(value.Row{value.Int(1), value.Int(1),
		value.String_("p"), value.Int(1), value.String_("RED")}); err != nil {
		t.Fatal(err)
	}
	if ix.Len() != 1 {
		t.Error("index not maintained after truncate")
	}
}

func TestOrderedIndexOn(t *testing.T) {
	tbl := indexedTable(t)
	if tbl.OrderedIndexOn("SNO") != nil {
		t.Error("no index yet")
	}
	ix, _ := tbl.CreateOrderedIndex("CIX", "COLOR", "PNO")
	if tbl.OrderedIndexOn("COLOR") != ix {
		t.Error("leading-column lookup failed")
	}
	if tbl.OrderedIndexOn("PNO") != nil {
		t.Error("non-leading column must not match")
	}
	if tbl.OrderedIndexOn("NOPE") != nil {
		t.Error("unknown column must not match")
	}
	if got := len(tbl.OrderedIndexes()); got != 1 {
		t.Errorf("indexes = %d", got)
	}
}

// Lookup finds the end of a run by galloping from its start, and Seek
// finds its start by galloping from the caller's hint: every run length
// around the powers of two, at the front, in the middle and at the end
// of the index, must come back exactly as a linear walk finds it —
// whatever the hint, from Seek + At as from Lookup — as a view (no
// allocation) an append cannot grow into the index.
func TestLookupMatchesLinearWalk(t *testing.T) {
	c := mustCatalog(t, []string{
		`CREATE TABLE T (ID INTEGER, A INTEGER, B INTEGER, PRIMARY KEY (ID))`,
	})
	tbl := NewDB(c).MustTable("T")
	ix, err := tbl.CreateOrderedIndex("A_B", "A", "B")
	if err != nil {
		t.Fatal(err)
	}
	// A = n has n rows for n in 0..17 except 5 (an absent key between
	// present ones); B cycles 0..2, NULL once.
	id := int64(0)
	for a := int64(0); a <= 17; a++ {
		for k := int64(0); a != 5 && k < a; k++ {
			b := value.Value(value.Int(k % 3))
			if a == 7 && k == 0 {
				b = value.Null
			}
			if err := tbl.Insert(value.Row{value.Int(id), value.Int(a), b}); err != nil {
				t.Fatal(err)
			}
			id++
		}
	}
	walk := func(prefix value.Row) []int {
		var out []int
		for i, key := range ix.keys {
			if value.OrderCompareRows(key[:len(prefix)], prefix) == 0 {
				out = append(out, ix.rows[i])
			}
		}
		return out
	}
	var prefixes []value.Row
	for a := int64(-1); a <= 18; a++ {
		prefixes = append(prefixes, value.Row{value.Int(a)})
		for b := int64(-1); b <= 3; b++ {
			prefixes = append(prefixes, value.Row{value.Int(a), value.Int(b)})
		}
	}
	prefixes = append(prefixes, value.Row{value.Int(7), value.Null}, value.Row{value.Null})
	for _, prefix := range prefixes {
		got, err := ix.Lookup(prefix)
		if err != nil {
			t.Fatal(err)
		}
		want := walk(prefix)
		if len(got) != len(want) {
			t.Fatalf("Lookup%s = %v, a linear walk finds %v", prefix, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("Lookup%s = %v, a linear walk finds %v", prefix, got, want)
			}
		}
		if cap(got) != len(got) {
			t.Errorf("Lookup%s: the view has room to append into the index (len %d, cap %d)", prefix, len(got), cap(got))
		}
		start := 0
		for start < len(ix.keys) && value.OrderCompareRows(ix.keys[start][:len(prefix)], prefix) < 0 {
			start++
		}
		for hint := -1; hint <= len(ix.keys)+1; hint++ {
			pos := ix.Seek(prefix, hint)
			if pos != start {
				t.Fatalf("Seek(%s, hint %d) = %d, a linear walk finds %d", prefix, hint, pos, start)
			}
		}
		for i, pos := 0, start; ; i, pos = i+1, pos+1 {
			ord, ok := ix.At(pos, prefix)
			if ok != (i < len(want)) || (ok && ord != want[i]) {
				t.Fatalf("At(%d, %s) = %d, %v; entry %d of %v", pos, prefix, ord, ok, i, want)
			}
			if !ok {
				break
			}
		}
	}
	lo, hi := value.Int(3), value.Int(9)
	probe := value.Row{value.Int(12)}
	if n := testing.AllocsPerRun(100, func() {
		_, _ = ix.Lookup(probe)
		_ = ix.Range(&lo, &hi)
		_, _ = ix.At(ix.Seek(probe, 40), probe)
	}); n != 0 {
		t.Errorf("Lookup + Range + Seek + At allocate %.0f times per call, want 0", n)
	}
}
