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
	withDegenerateHash(t)
	rel := craftedRows()
	st := &Stats{}
	want := okRel(DistinctSort(ctx0, st, rel)) // sort-based: no hashing involved

	got := hashDistinct(st, rel)
	if !MultisetEqual(want, got) {
		t.Fatalf("hash distinct under full collisions:\n got %s\n want %s", got, want)
	}
	// First-occurrence order must also survive collisions.
	identicalRelations(t, firstOccurrences(rel), got, "distinct order under collisions")
}

func TestCollisionFallbackJoins(t *testing.T) {
	withDegenerateHash(t)
	r := rand.New(rand.NewSource(23))
	l := randomRelation(r, "L", 300)
	rr := randomRelation(r, "R", 120)

	// Reference: the selection over the product (hash-free).
	st := &Stats{}
	want := joinOracle(st, l, rr, "L.K", "R.K")
	if len(want.Rows) == 0 {
		t.Fatal("collision workload produced no join rows; weak test")
	}
	identicalRelations(t, want, hashJoin(st, l, rr, []string{"L.K"}, []string{"R.K"}),
		"hash join under full collisions")
}

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
	for _, all := range []bool{false, true} {
		gotI := okRel(Intersect(ctx0, st, a, b, all))
		gotE := okRel(Except(ctx0, st, a, b, all))
		wantI := sortSetOp(t, st, a, b, false, all)
		wantE := sortSetOp(t, st, a, b, true, all)
		if !MultisetEqual(gotI, wantI) {
			t.Errorf("okRel(Intersect(ctx0, all=%v)) under collisions:\n got %s\n want %s", all, gotI, wantI)
		}
		if !MultisetEqual(gotE, wantE) {
			t.Errorf("okRel(Except(ctx0, all=%v)) under collisions:\n got %s\n want %s", all, gotE, wantE)
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
// the fallback: every row of a sizable input lands in one bucket.
func TestCollisionBuckets(t *testing.T) {
	withDegenerateHash(t)
	st := &Stats{}
	rel := craftedRows()
	g := newGuard(ctx0, st)
	counts, err := setOpCounts(&g, st, rel)
	if err != nil {
		t.Fatalf("setOpCounts: %v", err)
	}
	if len(counts) != 1 {
		t.Fatalf("degenerate hash produced %d buckets, want 1", len(counts))
	}
	total := 0
	for _, bucket := range counts {
		for _, cr := range bucket {
			total += cr.n
		}
	}
	if total != len(rel.Rows) {
		t.Fatalf("bucket multiset holds %d rows, want %d", total, len(rel.Rows))
	}
}
