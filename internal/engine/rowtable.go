package engine

import "uniqopt/internal/value"

// rowTable is an insertion-ordered hash multimap from row hashes to
// rows, used by the hash operators in place of
// map[uint64][]value.Row. It is open-addressed on the hash (one probe
// sequence per distinct hash value) and chains same-hash rows through
// an intrusive linked list in insertion order, so iteration over a
// hash's chain visits rows exactly as append would have — a property
// the byte-identical streaming guarantee relies on when hashes
// collide.
//
// rowTable never shrinks and has no delete; it is built once per
// operator invocation and discarded. The zero value is an empty table:
// nothing is taken until the first insert or reserve, and then from the
// execution's scratch, which every call that may grow it is passed.
// Callers own all Stats counting (HashProbes, HashInserts, Comparisons)
// and all equality checking: the table only partitions rows by hash.
type rowTable struct {
	// slots[s] holds the first and last entry of the chain whose hash
	// landed in slot s, each offset by +1 so the zero value means
	// "empty" and fresh slot arrays need no sentinel fill pass. tail
	// makes chain append O(1) without walking.
	slots   []rtSlot
	entries []rtEntry
	mask    uint64
}

type rtSlot struct {
	head, tail int32 // entry index + 1; 0 = empty
}

type rtEntry struct {
	hash uint64
	next int32 // next entry with the same hash, -1 at chain end
	row  value.Row
}

const rtNone = int32(-1)

// rtFloorSlots is the smallest slot array: a table that turns out to
// hold a row or two costs next to nothing. Growth quadruples, so a large
// stream of unknown size relinks about a third of its rows over its
// whole life wherever it starts.
const rtFloorSlots = 8

// reserve makes room for n more rows in one step — the entry log and the
// slot array each grow to hold them, or fourfold if that is more — so a
// caller that learns its input a batch at a time pays for the rows it
// was handed, not for a guess.
func (t *rowTable) reserve(sc *Scratch, n int) {
	need := len(t.entries) + n
	if need > cap(t.entries) {
		// Entries carry row pointers, so each relocation pays GC write
		// barriers: fewer, larger moves beat append's default doubling.
		ne := sc.entries.take(max(need, 4*cap(t.entries)))[:len(t.entries)]
		copy(ne, t.entries)
		t.entries = ne
	}
	if need*4 > len(t.slots)*3 {
		t.grow(sc, need)
	}
}

// find returns the index of the first entry whose hash is h, or rtNone.
// Walk the chain via entries[i].next for the remaining same-hash rows.
func (t *rowTable) find(h uint64) int32 {
	if len(t.slots) == 0 {
		return rtNone
	}
	i := h & t.mask
	for {
		s := t.slots[i]
		if s.head == 0 {
			return rtNone
		}
		if e := s.head - 1; t.entries[e].hash == h {
			return e
		}
		i = (i + 1) & t.mask
	}
}

// insert appends row to hash h's chain (creating the chain if h is
// new) and returns the new entry's index.
func (t *rowTable) insert(sc *Scratch, h uint64, row value.Row) int32 {
	if len(t.entries) == cap(t.entries) || (len(t.entries)+1)*4 > len(t.slots)*3 {
		t.reserve(sc, 4)
	}
	idx := int32(len(t.entries))
	t.entries = append(t.entries, rtEntry{hash: h, next: rtNone, row: row})
	i := h & t.mask
	for {
		s := &t.slots[i]
		if s.head == 0 {
			s.head, s.tail = idx+1, idx+1
			return idx
		}
		if t.entries[s.head-1].hash == h {
			t.entries[s.tail-1].next = idx
			s.tail = idx + 1
			return idx
		}
		i = (i + 1) & t.mask
	}
}

// grow quadruples the slot array (from nothing: to rtFloorSlots), or
// takes it to the power of two that holds rows at three-quarters load if
// that is more, and relinks every entry. Entries are relinked in index
// order, which preserves each chain's insertion order; the 4x factor
// keeps total rehash work near one pass over the final table even when
// the table started from nothing.
func (t *rowTable) grow(sc *Scratch, rows int) {
	n := max(len(t.slots)*4, rtFloorSlots)
	for n*3 < rows*4 && n < 1<<30 {
		n <<= 1
	}
	t.mask = uint64(n - 1)
	t.slots = sc.slots.take(n)
	for idx := range t.entries {
		e := &t.entries[idx]
		e.next = rtNone
		i := e.hash & t.mask
		for {
			s := &t.slots[i]
			if s.head == 0 {
				s.head, s.tail = int32(idx)+1, int32(idx)+1
				break
			}
			if t.entries[s.head-1].hash == e.hash {
				t.entries[s.tail-1].next = int32(idx)
				s.tail = int32(idx) + 1
				break
			}
			i = (i + 1) & t.mask
		}
	}
}

// len reports the number of inserted rows.
func (t *rowTable) len() int { return len(t.entries) }
