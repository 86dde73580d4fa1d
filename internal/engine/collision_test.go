package engine

import (
	"math/rand"
	"testing"

	"uniqopt/internal/value"
)

// withDegenerateHash routes every hash-based operator through a
// constant hash function, forcing all rows into a single bucket.
// Operators must survive on
// their collision fallback alone: the row-by-row ≐ comparison on hash
// match. Restores the real hash on cleanup.
func withDegenerateHash(t *testing.T) {
	t.Helper()
	prev := hashRow
	hashRow = func(value.Row) uint64 { return 42 }
	t.Cleanup(func() { hashRow = prev })
}

// craftedRows builds a relation whose rows all collide under the
// degenerate hash but contain distinct and duplicate values, NULLs
// included.
func craftedRows() *Relation {
	return &Relation{
		Cols: []string{"T.K", "T.V"},
		Rows: []value.Row{
			{value.Int(1), value.String_("a")},
			{value.Int(2), value.String_("b")},
			{value.Int(1), value.String_("a")}, // dup of row 0
			{value.Null, value.String_("a")},
			{value.Null, value.String_("a")}, // ≐-dup of row 3
			{value.Int(1), value.Null},
			{value.Int(3), value.String_("a")},
		},
	}
}

func TestCollisionFallbackDistinct(t *testing.T) {
	sc := NewScratch()
	withDegenerateHash(t)
	rel := craftedRows()
	want := distinctOracle(rel) // counted by the rows' spelling: no hashing involved

	got := hashDistinct(sc, &Stats{}, rel)
	if !MultisetEqual(want, got) {
		t.Fatalf("hash distinct under full collisions:\n got %s\n want %s", got, want)
	}
	// First-occurrence order must also survive collisions.
	identicalRelations(t, firstOccurrences(rel), got, "distinct order under collisions")
}

func TestCollisionFallbackJoins(t *testing.T) {
	sc := NewScratch()
	withDegenerateHash(t)
	r := rand.New(rand.NewSource(23))
	l := randomRelation(r, "L", 300)
	rr := randomRelation(r, "R", 120)

	// Reference: nested loops (hash-free).
	st := &Stats{}
	want := joinOracle(l, rr, "L.K", "R.K")
	if len(want.Rows) == 0 {
		t.Fatal("collision workload produced no join rows; weak test")
	}
	identicalRelations(t, want, hashJoin(sc, st, l, rr, []string{"L.K"}, []string{"R.K"}),
		"hash join under full collisions")
}

// TestCollisionFallbackSetOps: the set operations merge sorted
// operands and hash nothing, so a degenerate hash leaves them exactly
// the oracle's ≐-counted answers.
func TestCollisionFallbackSetOps(t *testing.T) {
	withDegenerateHash(t)
	a := craftedRows()
	b := &Relation{
		Cols: []string{"T.K", "T.V"},
		Rows: []value.Row{
			{value.Int(1), value.String_("a")},
			{value.Null, value.String_("a")},
			{value.Int(9), value.String_("z")},
		},
	}
	st := &Stats{}
	for _, except := range []bool{false, true} {
		for _, all := range []bool{false, true} {
			got, want := sortSetOp(t, st, a, b, except, all), setOpOracle(a, b, except, all)
			if !MultisetEqual(got, want) {
				t.Errorf("set operation except=%v all=%v under collisions:\n got %s\n want %s", except, all, got, want)
			}
		}
	}
}

// TestCollisionMultisetEqual pins that MultisetEqual itself falls back
// to row comparison on hash match.
func TestCollisionMultisetEqual(t *testing.T) {
	withDegenerateHash(t)
	a := craftedRows()
	b := a.Clone()
	if !MultisetEqual(a, b) {
		t.Fatal("identical relations unequal under degenerate hash")
	}
	b.Rows[0] = value.Row{value.Int(99), value.String_("x")}
	if MultisetEqual(a, b) {
		t.Fatal("different relations equal under degenerate hash")
	}
}

// TestCollisionBuckets verifies the degenerate hash really exercises
// the fallback: every row of a sizable input lands in one chain of the
// hash operators' table.
func TestCollisionBuckets(t *testing.T) {
	withDegenerateHash(t)
	rel := craftedRows()
	var tab rowTable
	sc := NewScratch()
	for _, row := range rel.Rows {
		tab.insert(sc, hashRow(row), row)
	}
	n := 0
	for e := tab.find(hashRow(rel.Rows[0])); e != rtNone; e = tab.entries[e].next {
		n++
	}
	if n != len(rel.Rows) || tab.len() != len(rel.Rows) {
		t.Fatalf("one chain holds %d of %d rows (%d in the table)", n, len(rel.Rows), tab.len())
	}
}
