package storage

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
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
	rows, err := ix.Lookup(value.Row{value.String_("RED")}, ints)
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
	rows, err := ix.Lookup(value.Row{value.Int(9), value.Int(1)}, ints)
	if err != nil || len(rows) != 1 {
		t.Errorf("composite lookup = %v, %v", rows, err)
	}
	// Prefix lookup.
	rows, err = ix.Lookup(value.Row{value.Int(2)}, ints)
	if err != nil || len(rows) != 4 {
		t.Errorf("prefix lookup = %d rows, %v", len(rows), err)
	}
	// Over-long prefix is an error.
	if _, err := ix.Lookup(value.Row{value.Int(1), value.Int(1), value.Int(1)}, ints); err == nil {
		t.Error("over-long prefix should fail")
	}
	if _, err := ix.Lookup(value.Row{}, ints); err == nil {
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
	rows := ix.Range(&lo, &hi, ints)
	if len(rows) != 12 { // suppliers 2,3,4 × 4 parts
		t.Errorf("range rows = %d, want 12", len(rows))
	}
	// Open-ended ranges.
	if got := len(ix.Range(nil, &lo, ints)); got != 8 { // suppliers 1,2
		t.Errorf("open-low range = %d, want 8", got)
	}
	if got := len(ix.Range(&hi, nil, ints)); got != 8 { // suppliers 4,5
		t.Errorf("open-high range = %d, want 8", got)
	}
	if got := len(ix.Range(nil, nil, ints)); got != 20 {
		t.Errorf("full range = %d, want 20", got)
	}
	// Inverted range is empty.
	if got := len(ix.Range(&hi, &lo, ints)); got != 0 {
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
	if got := len(ix.Range(nil, nil, ints)); got != 3 {
		t.Errorf("NULLs must be excluded from ranges: %d, want 3", got)
	}
	lo := value.Int(1)
	if got := len(ix.Range(&lo, nil, ints)); got != 3 {
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

// sliceIndex is the sorted-slice index the tree replaced, kept here as
// the model the tree is checked against: (key projection, row ordinal)
// pairs ordered by value.OrderCompareRows then ordinal, every answer a
// binary search or a linear walk over them.
type sliceIndex struct {
	keys []value.Row
	rows []int
}

func (m *sliceIndex) insert(key value.Row, row int) {
	i := sort.Search(len(m.keys), func(i int) bool {
		if c := value.OrderCompareRows(m.keys[i], key); c != 0 {
			return c >= 0
		}
		return m.rows[i] >= row
	})
	m.keys = append(m.keys, nil)
	m.rows = append(m.rows, 0)
	copy(m.keys[i+1:], m.keys[i:])
	copy(m.rows[i+1:], m.rows[i:])
	m.keys[i], m.rows[i] = key, row
}

// lowerBound is the position of the first entry whose leading columns
// are not below prefix.
func (m *sliceIndex) lowerBound(prefix value.Row) int {
	return sort.Search(len(m.keys), func(i int) bool {
		return value.OrderCompareRows(m.keys[i][:len(prefix)], prefix) >= 0
	})
}

func (m *sliceIndex) lookup(prefix value.Row) []int {
	var out []int
	for i, key := range m.keys {
		if value.OrderCompareRows(key[:len(prefix)], prefix) == 0 {
			out = append(out, m.rows[i])
		}
	}
	return out
}

func (m *sliceIndex) rangeOf(lo, hi *value.Value) []int {
	var out []int
	for i, key := range m.keys {
		v := key[0]
		if v.IsNull() || (lo != nil && value.OrderCompare(v, *lo) < 0) || (hi != nil && value.OrderCompare(v, *hi) > 0) {
			continue
		}
		out = append(out, m.rows[i])
	}
	return out
}

// chain reads the tree's entries off its leaf chain, and tells where
// each leaf starts, so a cursor can be turned into the position a sorted
// slice would give it.
func chain(ix *OrderedIndex) (entries []int, start map[*node]int) {
	start = map[*node]int{}
	for l := firstLeaf(ix); l != nil; l = l.next {
		start[l] = len(entries)
		entries = append(entries, l.ords...)
	}
	return entries, start
}

func firstLeaf(ix *OrderedIndex) *node {
	l := ix.root
	for l.kids != nil {
		l = l.kids[0]
	}
	return l
}

// checkAgainstModel holds one index to its model: same entries in the
// same order; for every prefix, Seek from no hint and from every cursor
// in hints (kept from earlier calls, whatever the tree looked like
// then) is the model's lower bound, reading on with At visits what
// Lookup returns and what the model finds; Range agrees on open, NULL
// and inverted bounds. The cursors it gets back are added to hints.
func checkAgainstModel(t *testing.T, ix *OrderedIndex, m *sliceIndex, prefixes []value.Row, bounds []*value.Value, hints *[]Cursor) {
	t.Helper()
	entries, start := chain(ix)
	if !slices.Equal(entries, m.rows) || ix.Len() != len(m.rows) {
		t.Fatalf("%s: the leaf chain holds %d entries (Len %d), the model %d; or their order differs",
			ix.Name, len(entries), ix.Len(), len(m.rows))
	}
	pos := func(c Cursor) int {
		at, ok := start[c.leaf]
		if !ok {
			t.Fatalf("%s: cursor on a leaf that is not in the chain", ix.Name)
		}
		return at + c.slot
	}
	var fresh []Cursor
	for _, prefix := range prefixes {
		want := m.lowerBound(prefix)
		c := ix.Seek(prefix, Cursor{})
		if pos(c) != want {
			t.Fatalf("%s: Seek(%s) = %d, the model's lower bound is %d", ix.Name, prefix, pos(c), want)
		}
		for hi, h := range *hints {
			if got := pos(ix.Seek(prefix, h)); got != want {
				t.Fatalf("%s: Seek(%s, hint #%d) = %d, the model's lower bound is %d", ix.Name, prefix, hi, got, want)
			}
		}
		fresh = append(fresh, c)
		found := m.lookup(prefix)
		var walked []int
		for {
			ord, next, ok := ix.At(c, prefix)
			if !ok {
				if next != c {
					t.Fatalf("%s: At(%s) past the run moved the cursor", ix.Name, prefix)
				}
				break
			}
			walked, c = append(walked, ord), next
		}
		fresh = append(fresh, c)
		got, err := ix.Lookup(prefix, ints)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(walked, found) || !slices.Equal(got, found) {
			t.Fatalf("%s: prefix %s: At walk %v, Lookup %v, model %v", ix.Name, prefix, walked, got, found)
		}
		if cap(got) != len(got) {
			t.Errorf("%s: Lookup(%s) has room to append into (len %d, cap %d)", ix.Name, prefix, len(got), cap(got))
		}
	}
	for _, lo := range bounds {
		for _, hi := range bounds {
			if got, want := ix.Range(lo, hi, ints), m.rangeOf(lo, hi); !slices.Equal(got, want) {
				t.Fatalf("%s: Range(%v, %v) = %v, the model finds %v", ix.Name, lo, hi, got, want)
			}
		}
	}
	// Keep each distinct cursor once, and thin the collection (old and
	// new alike) when it outgrows what a check can afford to replay.
	seen := map[Cursor]bool{}
	for _, h := range *hints {
		seen[h] = true
	}
	for _, c := range fresh {
		if !seen[c] {
			seen[c] = true
			*hints = append(*hints, c)
		}
	}
	if len(*hints) > 600 {
		kept := (*hints)[:0]
		for i, h := range *hints {
			if i%2 == 0 {
				kept = append(kept, h)
			}
		}
		*hints = kept
	}
}

// The tree against the sorted slice it replaced, seeded: random,
// ascending and descending loads over small domains (so most keys are
// duplicates told apart by ordinal) with NULLs in every column, a
// three-column and a one-column index, checked every few hundred
// inserts — across leaf splits, inner splits and a new root — with
// every cursor handed out so far offered back as a hint; then Truncate
// and the same again with the cursors of the emptied tree as hints; and
// an index created over the populated table (sort + bulk load) must
// hold the incrementally built one's entries, entry for entry.
func TestIndexTreeMatchesSortedSliceModel(t *testing.T) {
	const rows, every = 6000, 750
	cell := func(rng *rand.Rand, domain int64) value.Value {
		if rng.Intn(12) == 0 {
			return value.Null
		}
		return value.Int(rng.Int63n(domain))
	}
	for _, load := range []string{"random", "ascending", "descending"} {
		for seed := int64(1); seed <= 2; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", load, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				c := mustCatalog(t, []string{
					`CREATE TABLE T (ID INTEGER, A INTEGER, B INTEGER, C INTEGER, PRIMARY KEY (ID))`,
				})
				tbl := NewDB(c).MustTable("T")
				abc, err := tbl.CreateOrderedIndex("ABC", "A", "B", "C")
				if err != nil {
					t.Fatal(err)
				}
				cOnly, err := tbl.CreateOrderedIndex("C", "C")
				if err != nil {
					t.Fatal(err)
				}
				var prefixes []value.Row
				for a := int64(-1); a <= 9; a++ {
					av := value.Value(value.Int(a))
					if a == 9 {
						av = value.Null
					}
					prefixes = append(prefixes, value.Row{av})
					for _, bv := range []value.Value{value.Null, value.Int(-1), value.Int(0), value.Int(3), value.Int(5)} {
						prefixes = append(prefixes, value.Row{av, bv},
							value.Row{av, bv, value.Null}, value.Row{av, bv, value.Int(rng.Int63n(40))})
					}
				}
				var cPrefixes []value.Row
				for _, v := range []value.Value{value.Null, value.Int(-1), value.Int(0), value.Int(17), value.Int(39), value.Int(40)} {
					cPrefixes = append(cPrefixes, value.Row{v})
				}
				null, lo, mid, hi := value.Null, value.Int(2), value.Int(4), value.Int(7)
				bounds := []*value.Value{nil, &null, &lo, &mid, &hi}

				var abcModel, cModel sliceIndex
				var abcHints, cHints []Cursor
				id := 0
				fill := func() {
					for n := 1; n <= rows; n++ {
						row := value.Row{value.Int(int64(id)), cell(rng, 8), cell(rng, 5), cell(rng, 40)}
						switch load {
						case "ascending":
							row[1], row[2], row[3] = value.Int(int64(n/700)), value.Int(int64(n/100%7)), value.Int(int64(n%100/3))
						case "descending":
							row[1], row[3] = value.Int(int64((rows-n)/700)), value.Int(int64((rows-n)%40))
						}
						if err := tbl.Insert(row); err != nil {
							t.Fatal(err)
						}
						abcModel.insert(value.Row{row[1], row[2], row[3]}, tbl.Len()-1)
						cModel.insert(value.Row{row[3]}, tbl.Len()-1)
						id++
						if n%every == 0 || n == 1 || n == fanout+1 {
							checkAgainstModel(t, abc, &abcModel, prefixes, bounds, &abcHints)
							checkAgainstModel(t, cOnly, &cModel, cPrefixes, bounds, &cHints)
						}
					}
				}
				checkAgainstModel(t, abc, &abcModel, prefixes, bounds, &abcHints) // empty
				fill()
				bulk, err := tbl.CreateOrderedIndex("BULK", "A", "B", "C")
				if err != nil {
					t.Fatal(err)
				}
				checkAgainstModel(t, bulk, &abcModel, prefixes, bounds, &[]Cursor{})

				tbl.Truncate()
				abcModel, cModel = sliceIndex{}, sliceIndex{}
				checkAgainstModel(t, abc, &abcModel, prefixes, bounds, &abcHints)
				fill()
			})
		}
	}
}

// Every run length around the powers of two, at the front, in the
// middle and at the end of the index, with an absent key between
// present ones and a NULL inside a run, must come back exactly as a
// linear walk finds it — whatever the hint, from Seek + At as from
// Lookup — and Seek and At, the per-row path of an index join, must not
// allocate.
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
	var model sliceIndex
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
			model.insert(value.Row{value.Int(a), b}, int(id))
			id++
		}
	}
	var prefixes []value.Row
	for a := int64(-1); a <= 18; a++ {
		prefixes = append(prefixes, value.Row{value.Int(a)})
		for b := int64(-1); b <= 3; b++ {
			prefixes = append(prefixes, value.Row{value.Int(a), value.Int(b)})
		}
	}
	prefixes = append(prefixes, value.Row{value.Int(7), value.Null}, value.Row{value.Null})
	// Every position of the index is a hint: each entry, and the end.
	var hints []Cursor
	for l := firstLeaf(ix); l != nil; l = l.next {
		for s := 0; s <= len(l.ords); s++ {
			hints = append(hints, Cursor{l, s})
		}
	}
	lo, hi := value.Int(3), value.Int(9)
	checkAgainstModel(t, ix, &model, prefixes, []*value.Value{nil, &lo, &hi}, &hints)

	probe := value.Row{value.Int(12)}
	far := ix.Seek(value.Row{value.Int(2)}, Cursor{})
	if n := testing.AllocsPerRun(100, func() {
		c := ix.Seek(probe, far)
		for ok := true; ok; {
			_, c, ok = ix.At(c, probe)
		}
		_ = ix.Seek(probe, c)
	}); n != 0 {
		t.Errorf("Seek + At allocate %.0f times per probe, want 0", n)
	}
}

// BenchmarkOrderedIndexInsert loads n rows into a table with one
// two-column ordered index, in key order and in random order: ns/row
// should not depend on n, and random should stay within a small factor
// of ascending.
func BenchmarkOrderedIndexInsert(b *testing.B) {
	for _, order := range []string{"ascending", "random"} {
		for _, n := range []int{10_000, 100_000} {
			b.Run(fmt.Sprintf("%s/%dk", order, n/1000), func(b *testing.B) {
				keys := make([]int64, n)
				for i := range keys {
					keys[i] = int64(i)
				}
				if order == "random" {
					rand.New(rand.NewSource(1)).Shuffle(n, func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
				}
				c := mustCatalog(b, []string{
					`CREATE TABLE T (ID INTEGER, A INTEGER, B INTEGER, PRIMARY KEY (ID))`,
				})
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					tbl := NewDB(c).MustTable("T")
					if _, err := tbl.CreateOrderedIndex("A_B", "A", "B"); err != nil {
						b.Fatal(err)
					}
					for id, k := range keys {
						if err := tbl.Insert(value.Row{value.Int(int64(id)), value.Int(k / 4), value.Int(k % 4)}); err != nil {
							b.Fatal(err)
						}
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/row")
			})
		}
	}
}

// ints is an index probe's allocator for the tests: a fresh slice each
// time.
func ints(n int) []int { return make([]int, n) }
