package storage

import (
	"fmt"
	"sort"
	"strings"

	"uniqopt/internal/value"
)

// OrderedIndex is a sorted secondary index over one or more columns:
// entries are (key projection, row ordinal) pairs ordered by
// value.OrderCompareRows then ordinal. It supports equality lookups on
// a leading prefix and range scans on the first column — the access
// paths the paper's Section 6 examples assume ("an index on PARTS by
// PNO and an index on SUPPLIER by SNO").
type OrderedIndex struct {
	Name    string
	Columns []int // ordinals in the owning table
	keys    []value.Row
	rows    []int
}

// Len reports the number of index entries.
func (ix *OrderedIndex) Len() int { return len(ix.rows) }

func (ix *OrderedIndex) insert(key value.Row, row int) {
	i := sort.Search(len(ix.keys), func(i int) bool {
		c := value.OrderCompareRows(ix.keys[i], key)
		if c != 0 {
			return c >= 0
		}
		return ix.rows[i] >= row
	})
	ix.keys = append(ix.keys, nil)
	ix.rows = append(ix.rows, 0)
	copy(ix.keys[i+1:], ix.keys[i:])
	copy(ix.rows[i+1:], ix.rows[i:])
	ix.keys[i] = key
	ix.rows[i] = row
}

// gallop returns the first position at or after from whose entry is not
// below, given that below holds for a (possibly empty) run of entries
// from from on and for none after it: doubling steps, then a binary
// search inside the last one, so the cost grows with the logarithm of
// the distance covered, not of the index.
func (ix *OrderedIndex) gallop(from int, below func(i int) bool) int {
	step := 1
	for from+step <= len(ix.keys) && below(from+step-1) {
		from += step
		step *= 2
	}
	end := min(from+step, len(ix.keys))
	return from + sort.Search(end-from, func(i int) bool { return !below(from + i) })
}

// Seek returns the position of the first entry whose leading columns are
// not below prefix (compared with OrderCompareRows on the prefix
// length): where the entries that start with prefix begin, if there are
// any. hint is where the caller expects that to be — the position it
// stopped reading at after its previous Seek, for a caller probing in
// ascending key order, which then pays for the distance between two
// probes instead of a search of the whole index. Any hint is safe; 0 is
// none. Positions are only meaningful under the read lock the statement
// runs under: an insert shifts the entries.
func (ix *OrderedIndex) Seek(prefix value.Row, hint int) int {
	n := len(prefix)
	before := func(i int) bool { return value.OrderCompareRows(ix.keys[i][:n], prefix) < 0 }
	switch {
	case hint <= 0 || hint > len(ix.keys):
		return sort.Search(len(ix.keys), func(i int) bool { return !before(i) })
	case before(hint - 1):
		return ix.gallop(hint, before)
	default:
		return sort.Search(hint, func(i int) bool { return !before(i) })
	}
}

// At returns the row ordinal of the entry at pos when its leading
// columns equal prefix under ≐ ordering (NULL ≐ NULL: a caller with
// WHERE-equality semantics must not probe with a NULL); ok is false
// there and past the last entry. Reading on from a Seek while ok holds
// visits exactly the entries Lookup returns, in their order.
func (ix *OrderedIndex) At(pos int, prefix value.Row) (ord int, ok bool) {
	if pos >= len(ix.keys) || value.OrderCompareRows(ix.keys[pos][:len(prefix)], prefix) != 0 {
		return 0, false
	}
	return ix.rows[pos], true
}

// Lookup returns the row ordinals whose leading index columns equal
// prefix under ≐ ordering. An over-long prefix is an error. The result
// is a view into the index, not a copy: it must not be modified, and
// must not be retained past the read lock the statement runs under.
func (ix *OrderedIndex) Lookup(prefix value.Row) ([]int, error) {
	n := len(prefix)
	if n == 0 || n > len(ix.Columns) {
		return nil, fmt.Errorf("storage: index %s: prefix length %d out of range", ix.Name, n)
	}
	lo := ix.Seek(prefix, 0)
	hi := ix.gallop(lo, func(i int) bool { return value.OrderCompareRows(ix.keys[i][:n], prefix) <= 0 })
	return ix.rows[lo:hi:hi], nil
}

// Range returns the row ordinals whose first index column lies in
// [lo, hi] (NULLs excluded; a nil bound is open) — a view into the
// index under the same terms as Lookup's.
func (ix *OrderedIndex) Range(lo, hi *value.Value) []int {
	a := 0
	if lo != nil {
		a = sort.Search(len(ix.keys), func(i int) bool {
			if ix.keys[i][0].IsNull() {
				return false // NULL sorts first, excluded
			}
			return value.OrderCompare(ix.keys[i][0], *lo) >= 0
		})
	} else {
		// Skip NULL entries.
		a = sort.Search(len(ix.keys), func(i int) bool {
			return !ix.keys[i][0].IsNull()
		})
	}
	b := len(ix.keys)
	if hi != nil {
		b = sort.Search(len(ix.keys), func(i int) bool {
			if ix.keys[i][0].IsNull() {
				return false
			}
			return value.OrderCompare(ix.keys[i][0], *hi) > 0
		})
	}
	if a > b {
		return nil
	}
	return ix.rows[a:b:b]
}

// CreateOrderedIndex builds a sorted index over the named columns and
// registers it on the table; existing rows are indexed immediately and
// future inserts maintain it.
func (t *Table) CreateOrderedIndex(name string, cols ...string) (*OrderedIndex, error) {
	if name == "" || len(cols) == 0 {
		return nil, fmt.Errorf("storage: index needs a name and columns")
	}
	name = strings.ToUpper(name)
	for _, ix := range t.ordered {
		if ix.Name == name {
			return nil, fmt.Errorf("storage: %s: duplicate index %s", t.Schema.Name, name)
		}
	}
	ix := &OrderedIndex{Name: name}
	for _, cn := range cols {
		ci := t.Schema.ColumnIndex(cn)
		if ci < 0 {
			return nil, fmt.Errorf("storage: %s: index column %s does not exist", t.Schema.Name, cn)
		}
		ix.Columns = append(ix.Columns, ci)
	}
	for ri, row := range t.rows {
		ix.insert(indexKey(row, ix.Columns), ri)
	}
	t.ordered = append(t.ordered, ix)
	if t.db != nil {
		// A new access path changes which plan the planner would pick:
		// bump the schema version so version-keyed caches (verdicts,
		// physical plans) re-derive rather than serve pre-index results.
		t.db.cat.Bump()
	}
	return ix, nil
}

// OrderedIndexes returns the table's ordered indexes.
func (t *Table) OrderedIndexes() []*OrderedIndex { return t.ordered }

// OrderedIndexOn returns an index whose leading column is the named
// column, if one exists.
func (t *Table) OrderedIndexOn(col string) *OrderedIndex {
	ci := t.Schema.ColumnIndex(col)
	if ci < 0 {
		return nil
	}
	for _, ix := range t.ordered {
		if ix.Columns[0] == ci {
			return ix
		}
	}
	return nil
}

func indexKey(row value.Row, cols []int) value.Row {
	out := make(value.Row, len(cols))
	for i, c := range cols {
		out[i] = row[c]
	}
	return out
}
