package storage

import (
	"fmt"
	"slices"
	"strings"

	"uniqopt/internal/value"
)

// fanout is the capacity of a tree node: entries in a leaf, children in
// an inner node. 64 ordinals are one 512-byte allocation, and a lower
// bound inside a node is six comparisons.
const fanout = 64

// node is one node of the index tree. A leaf holds the row ordinals of
// its entries in entry order and a link to the leaf after it; an inner
// node holds its children, and beside each the smallest entry below it.
// Entries are never removed, so a child's smallest entry changes only
// when the child is the leftmost of the whole tree — and ords[0], the
// one separator that routing never reads, is the only one that may be
// stale.
type node struct {
	ords []int
	kids []*node // nil in a leaf
	next *node   // leaf chain, left to right
}

func newLeaf(ords []int, next *node) *node {
	return &node{ords: append(make([]int, 0, fanout), ords...), next: next}
}

// OrderedIndex is a sorted secondary index over one or more columns: a
// leaf-linked B+tree of row ordinals ordered by the rows' index columns
// (value.OrderCompare, column by column) and then by ordinal. The keys
// are read from the table's rows, not copied, so an entry costs eight
// bytes and an insert moves at most one leaf's ordinals. It supports
// equality lookups on a leading prefix and range scans on the first
// column — the access paths the paper's Section 6 examples assume ("an
// index on PARTS by PNO and an index on SUPPLIER by SNO").
type OrderedIndex struct {
	Name    string
	Columns []int // ordinals in the owning table
	tbl     *Table
	root    *node
	tail    *node // rightmost leaf: where ascending loads append
	n       int
}

// Cursor is a position in an index: an entry, or the end. The zero
// Cursor is no position; Seek accepts it as "no hint". A cursor stays
// safe to pass to Seek across inserts and Truncate, as a hint that may
// no longer help; At wants one that Seek or At returned under the read
// lock the statement still holds.
type Cursor struct {
	leaf *node
	slot int
}

// Len reports the number of index entries.
func (ix *OrderedIndex) Len() int { return ix.n }

// reset empties the index, cutting every leaf loose so that a cursor
// kept from before reads as no hint instead of as a position in a tree
// that is gone.
func (ix *OrderedIndex) reset() {
	if ix.root != nil {
		l := ix.root
		for l.kids != nil {
			l = l.kids[0]
		}
		for l != nil {
			nx := l.next
			l.ords, l.next = l.ords[:0], nil
			l = nx
		}
	}
	ix.root = newLeaf(nil, nil)
	ix.tail, ix.n = ix.root, 0
}

// cmpPrefix orders the entry for row ord against prefix on the leading
// len(prefix) index columns.
func (ix *OrderedIndex) cmpPrefix(ord int, prefix value.Row) int {
	row := ix.tbl.Row(ord)
	for i, v := range prefix {
		if c := value.OrderCompare(row[ix.Columns[i]], v); c != 0 {
			return c
		}
	}
	return 0
}

// cmpEntries is the entry order: index columns, then ordinal.
func (ix *OrderedIndex) cmpEntries(a, b int) int {
	ra, rb := ix.tbl.Row(a), ix.tbl.Row(b)
	for _, c := range ix.Columns {
		if c := value.OrderCompare(ra[c], rb[c]); c != 0 {
			return c
		}
	}
	return a - b
}

// rank counts the entries of ords (sorted) that precede entry ord.
func (ix *OrderedIndex) rank(ords []int, ord int) int {
	lo, hi := 0, len(ords)
	for lo < hi {
		if m := int(uint(lo+hi) >> 1); ix.cmpEntries(ords[m], ord) < 0 {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// below counts the entries of ords (sorted) whose leading columns are
// below prefix — or, with upper, not above it.
func (ix *OrderedIndex) below(ords []int, prefix value.Row, upper bool) int {
	lo, hi := 0, len(ords)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if c := ix.cmpPrefix(ords[m], prefix); c < 0 || (upper && c == 0) {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// insertAt puts v at position i of s, which has room for it.
func insertAt[T any](s []T, i int, v T) []T {
	s = append(s, v)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

// insert files row ord, which the table already holds. A row that sorts
// after every entry — an ascending load — is appended to the rightmost
// leaf without a descent, and when that leaf is full the new leaf starts
// with this one entry, so ascending loads leave every leaf full. Any
// other row costs one descent and a shift inside one leaf; a full leaf
// or inner node splits in half.
func (ix *OrderedIndex) insert(ord int) {
	ix.n++
	if t := ix.tail; len(t.ords) < fanout &&
		(len(t.ords) == 0 || ix.cmpEntries(t.ords[len(t.ords)-1], ord) < 0) {
		t.ords = append(t.ords, ord)
		return
	}
	type step struct {
		in *node
		i  int // the child taken
	}
	var buf [8]step
	path := buf[:0]
	nd := ix.root
	for nd.kids != nil {
		i := ix.rank(nd.ords[1:], ord)
		path = append(path, step{nd, i})
		nd = nd.kids[i]
	}
	pos := ix.rank(nd.ords, ord)
	if len(nd.ords) < fanout {
		nd.ords = insertAt(nd.ords, pos, ord)
		return
	}
	cut := fanout / 2
	if nd.next == nil && pos == fanout {
		cut = fanout
	}
	right := newLeaf(nd.ords[cut:], nd.next)
	nd.ords, nd.next = nd.ords[:cut], right
	if ix.tail == nd {
		ix.tail = right
	}
	if pos >= cut {
		right.ords = insertAt(right.ords, pos-cut, ord)
	} else {
		nd.ords = insertAt(nd.ords, pos, ord)
	}
	// Hand the new node to the parent, splitting upwards while full.
	kid := right
	for len(path) > 0 {
		in, at := path[len(path)-1].in, path[len(path)-1].i+1
		path = path[:len(path)-1]
		var up *node
		if len(in.kids) == fanout {
			const h = fanout / 2
			up = &node{
				ords: append(make([]int, 0, fanout), in.ords[h:]...),
				kids: append(make([]*node, 0, fanout), in.kids[h:]...),
			}
			in.ords, in.kids = in.ords[:h], in.kids[:h]
			if at > h {
				in, at = up, at-h
			}
		}
		in.ords, in.kids = insertAt(in.ords, at, kid.ords[0]), insertAt(in.kids, at, kid)
		if up == nil {
			return
		}
		kid = up
	}
	ix.root = &node{
		ords: append(make([]int, 0, fanout), ix.root.ords[0], kid.ords[0]),
		kids: append(make([]*node, 0, fanout), ix.root, kid),
	}
}

// load replaces the index's contents with the table's rows: one sort,
// then full leaves left to right and the levels above them, instead of
// one descent per row.
func (ix *OrderedIndex) load() {
	ix.reset()
	ords := make([]int, ix.tbl.Len())
	for i := range ords {
		ords[i] = i
	}
	if len(ords) == 0 {
		return
	}
	slices.SortFunc(ords, ix.cmpEntries)
	ix.n = len(ords)
	var level []*node
	for len(ords) > 0 {
		l := newLeaf(ords[:min(fanout, len(ords))], nil)
		if len(level) > 0 {
			level[len(level)-1].next = l
		}
		level, ords = append(level, l), ords[len(l.ords):]
	}
	ix.tail = level[len(level)-1]
	for len(level) > 1 {
		var up []*node
		for len(level) > 0 {
			kids := level[:min(fanout, len(level))]
			in := &node{ords: make([]int, 0, fanout), kids: append(make([]*node, 0, fanout), kids...)}
			for _, k := range kids {
				in.ords = append(in.ords, k.ords[0])
			}
			up, level = append(up, in), level[len(kids):]
		}
		level = up
	}
	ix.root = level[0]
}

// bound descends from the root to the first entry whose leading columns
// are not below prefix — or, with upper, are above it. The slot may be
// one past the leaf's last entry: then the position is the next leaf's
// first entry, or the end.
func (ix *OrderedIndex) bound(prefix value.Row, upper bool) Cursor {
	nd := ix.root
	for nd.kids != nil {
		nd = nd.kids[ix.below(nd.ords[1:], prefix, upper)]
	}
	return Cursor{nd, ix.below(nd.ords, prefix, upper)}
}

// Seek returns the position of the first entry whose leading columns are
// not below prefix (compared with OrderCompare on the prefix length):
// where the entries that start with prefix begin, if there are any. hint
// is where the caller expects that to be — the position it stopped
// reading at after its previous Seek, for a caller probing in ascending
// key order, which then pays for the distance between two probes: when
// the answer lies in the hint's leaf or the one after it there is no
// descent, otherwise one from the root. Any hint is safe; the zero
// Cursor is none.
func (ix *OrderedIndex) Seek(prefix value.Row, hint Cursor) Cursor {
	if l := hint.leaf; l != nil && len(l.ords) > 0 && ix.cmpPrefix(l.ords[0], prefix) < 0 {
		// The answer is not before l. It is in l when l's last entry is
		// not below prefix, else after l.
		if ix.cmpPrefix(l.ords[len(l.ords)-1], prefix) >= 0 {
			return Cursor{l, ix.below(l.ords, prefix, false)}
		}
		nx := l.next
		if nx == nil {
			return Cursor{l, len(l.ords)}
		}
		if ix.cmpPrefix(nx.ords[len(nx.ords)-1], prefix) >= 0 {
			return Cursor{nx, ix.below(nx.ords, prefix, false)}
		}
	}
	return ix.bound(prefix, false)
}

// At returns the row ordinal of the entry at c, and the position after
// it, when the entry's leading columns equal prefix under ≐ ordering
// (NULL ≐ NULL: a caller with WHERE-equality semantics must not probe
// with a NULL); ok is false there and at the end, and next is then c.
// Reading on from a Seek while ok holds visits exactly the entries
// Lookup returns, in their order, along the leaf chain.
func (ix *OrderedIndex) At(c Cursor, prefix value.Row) (ord int, next Cursor, ok bool) {
	l, s := c.leaf, c.slot
	for l != nil && s >= len(l.ords) {
		l, s = l.next, 0
	}
	if l == nil || ix.cmpPrefix(l.ords[s], prefix) != 0 {
		return 0, c, false
	}
	return l.ords[s], Cursor{l, s + 1}, true
}

// collect copies out the ordinals of the entries in [from, to), two
// positions bound returned with from not after to, into take's slice of
// exactly their count.
func collect(from, to Cursor, take func(n int) []int) []int {
	n := -from.slot
	for l := from.leaf; l != to.leaf; l = l.next {
		if l == nil {
			return nil
		}
		n += len(l.ords)
	}
	if n += to.slot; n <= 0 {
		return nil
	}
	out := take(n)[:0]
	for l, s := from.leaf, from.slot; ; l, s = l.next, 0 {
		if l == to.leaf {
			return append(out, l.ords[s:to.slot]...)
		}
		out = append(out, l.ords[s:]...)
	}
}

// Lookup returns the row ordinals whose leading index columns equal
// prefix under ≐ ordering, in entry order, in a slice of take(n) — n
// zeroed ints of the caller's. An over-long prefix is an error.
func (ix *OrderedIndex) Lookup(prefix value.Row, take func(n int) []int) ([]int, error) {
	n := len(prefix)
	if n == 0 || n > len(ix.Columns) {
		return nil, fmt.Errorf("storage: index %s: prefix length %d out of range", ix.Name, n)
	}
	return collect(ix.bound(prefix, false), ix.bound(prefix, true), take), nil
}

// Range returns the row ordinals whose first index column lies in
// [lo, hi] (NULLs excluded; a nil bound is open), in entry order, in a
// slice of take(n) — n zeroed ints of the caller's.
func (ix *OrderedIndex) Range(lo, hi *value.Value, take func(n int) []int) []int {
	if hi != nil && (hi.IsNull() || (lo != nil && value.OrderCompare(*lo, *hi) > 0)) {
		return nil
	}
	var from Cursor
	if lo == nil || lo.IsNull() {
		from = ix.bound(value.Row{value.Null}, true) // NULL sorts first, excluded
	} else {
		from = ix.bound(value.Row{*lo}, false)
	}
	if hi == nil {
		return collect(from, Cursor{ix.tail, len(ix.tail.ords)}, take)
	}
	return collect(from, ix.bound(value.Row{*hi}, true), take)
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
	ix := &OrderedIndex{Name: name, tbl: t}
	for _, cn := range cols {
		ci := t.Schema.ColumnIndex(cn)
		if ci < 0 {
			return nil, fmt.Errorf("storage: %s: index column %s does not exist", t.Schema.Name, cn)
		}
		ix.Columns = append(ix.Columns, ci)
	}
	ix.load()
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
