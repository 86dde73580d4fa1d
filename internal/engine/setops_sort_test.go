package engine

import (
	"math/rand"
	"testing"

	"uniqopt/internal/value"
)

func randRelation(r *rand.Rand, n int) *Relation {
	rel := &Relation{Cols: []string{"A", "B"}}
	for i := 0; i < n; i++ {
		var a, b value.Value
		if r.Intn(5) == 0 {
			a = value.Null
		} else {
			a = value.Int(int64(r.Intn(4)))
		}
		if r.Intn(5) == 0 {
			b = value.Null
		} else {
			b = value.Int(int64(r.Intn(3)))
		}
		rel.Rows = append(rel.Rows, value.Row{a, b})
	}
	return rel
}

// Property: sort-merge set operations agree with the hash-based
// reference implementations on random NULL-rich multisets, for all
// four variants.
func TestSortSetOpsAgreeWithHash(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		l := randRelation(r, r.Intn(20))
		rr := randRelation(r, r.Intn(20))
		for _, all := range []bool{false, true} {
			var s1, s2 Stats
			hi := okRel(Intersect(ctx0, &s1, l, rr, all))
			si := okRel(IntersectSort(ctx0, &s2, l, rr, all))
			if !MultisetEqual(hi, si) {
				t.Fatalf("intersect(all=%v) mismatch:\nhash: %v\nsort: %v\nl=%v\nr=%v",
					all, hi, si, l, rr)
			}
			he := okRel(Except(ctx0, &s1, l, rr, all))
			se := okRel(ExceptSort(ctx0, &s2, l, rr, all))
			if !MultisetEqual(he, se) {
				t.Fatalf("except(all=%v) mismatch:\nhash: %v\nsort: %v\nl=%v\nr=%v",
					all, he, se, l, rr)
			}
		}
	}
}

func TestSortSetOpsSemantics(t *testing.T) {
	l := &Relation{Cols: []string{"X"}, Rows: []value.Row{
		{value.Int(1)}, {value.Int(1)}, {value.Int(1)},
		{value.Int(2)}, {value.Null}, {value.Null},
	}}
	r := &Relation{Cols: []string{"X"}, Rows: []value.Row{
		{value.Int(1)}, {value.Int(1)}, {value.Int(3)}, {value.Null},
	}}
	var st Stats
	// INTERSECT ALL: min counts — 1×2, NULL×1.
	ia := okRel(IntersectSort(ctx0, &st, l, r, true))
	if ia.Len() != 3 {
		t.Errorf("INTERSECT ALL = %d rows, want 3: %v", ia.Len(), ia)
	}
	// INTERSECT: distinct — {1, NULL}.
	id := okRel(IntersectSort(ctx0, &st, l, r, false))
	if id.Len() != 2 {
		t.Errorf("INTERSECT = %d rows, want 2: %v", id.Len(), id)
	}
	// EXCEPT ALL: max(j−k,0) — 1×1, 2×1, NULL×1.
	ea := okRel(ExceptSort(ctx0, &st, l, r, true))
	if ea.Len() != 3 {
		t.Errorf("EXCEPT ALL = %d rows, want 3: %v", ea.Len(), ea)
	}
	// EXCEPT: distinct rows of l absent from r — {2}.
	ed := okRel(ExceptSort(ctx0, &st, l, r, false))
	if ed.Len() != 1 || ed.Rows[0][0].AsInt() != 2 {
		t.Errorf("EXCEPT = %v", ed)
	}
	// The operation sorted both operands.
	if st.SortRuns < 2 {
		t.Errorf("sort runs = %d", st.SortRuns)
	}
}

// The set-operation iterator charges each operand row once, when it
// collects it, and sorts the buffers it collected into: an INTERSECT ALL
// of n and m rows materializes the operands, the merged result and the
// drained result — n+m rows fewer than when the merge charged sorted
// copies of both operands again. Everything else it counts, and every
// row, is what the relation-level IntersectSort gives.
func TestSetOpIterChargesOperandsOnce(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	l, rr := randRelation(r, 300), randRelation(r, 200)
	var want Stats
	wantRel := okRel(IntersectSort(ctx0, &want, l, rr, true))
	var st Stats
	got := mustDrain(t, &st, NewSetOpIter(&st, NewRelationIter(&st, l), NewRelationIter(&st, rr), false, true))
	identicalRelations(t, wantRel, got, "INTERSECT ALL")
	n, m, out := int64(l.Len()), int64(rr.Len()), int64(got.Len())
	if st.RowsMaterialized != n+m+2*out {
		t.Errorf("RowsMaterialized = %d, want %d operand rows + 2×%d result rows", st.RowsMaterialized, n+m, out)
	}
	var bytes int64
	for _, rel := range []*Relation{l, rr, got, got} {
		for _, row := range rel.Rows {
			bytes += rowBytes(row)
		}
	}
	if st.BytesReserved != bytes {
		t.Errorf("BytesReserved = %d, want %d", st.BytesReserved, bytes)
	}
	if st.SortRuns != want.SortRuns || st.RowsSorted != n+m || st.RowsSorted != want.RowsSorted ||
		st.Comparisons != want.Comparisons {
		t.Errorf("sorts %d, rows sorted %d, comparisons %d; IntersectSort: %d, %d, %d",
			st.SortRuns, st.RowsSorted, st.Comparisons, want.SortRuns, want.RowsSorted, want.Comparisons)
	}
}
