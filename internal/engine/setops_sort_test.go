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

// sortSetOp drains the set-operation iterator, the product's sort-merge
// INTERSECT / EXCEPT [ALL], over two relations.
func sortSetOp(t *testing.T, st *Stats, l, r *Relation, except, all bool) *Relation {
	t.Helper()
	sc := NewScratch()
	return mustDrain(t, sc, st, NewSetOpIter(sc, st, NewRelationIter(sc, st, l), NewRelationIter(sc, st, r), except, all))
}

// Property: the sort-merge set-operation iterator agrees with the
// oracle's ≐-counted set operations on random NULL-rich multisets, for
// all four variants.
func TestSortSetOpsAgreeWithHash(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		l := randRelation(r, r.Intn(20))
		rr := randRelation(r, r.Intn(20))
		for _, except := range []bool{false, true} {
			for _, all := range []bool{false, true} {
				var st Stats
				want, got := setOpOracle(l, rr, except, all), sortSetOp(t, &st, l, rr, except, all)
				if !MultisetEqual(want, got) {
					t.Fatalf("except=%v all=%v mismatch:\noracle: %v\nsort: %v\nl=%v\nr=%v",
						except, all, want, got, l, rr)
				}
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
	ia := sortSetOp(t, &st, l, r, false, true)
	if ia.Len() != 3 {
		t.Errorf("INTERSECT ALL = %d rows, want 3: %v", ia.Len(), ia)
	}
	// INTERSECT: distinct — {1, NULL}.
	id := sortSetOp(t, &st, l, r, false, false)
	if id.Len() != 2 {
		t.Errorf("INTERSECT = %d rows, want 2: %v", id.Len(), id)
	}
	// EXCEPT ALL: max(j−k,0) — 1×1, 2×1, NULL×1.
	ea := sortSetOp(t, &st, l, r, true, true)
	if ea.Len() != 3 {
		t.Errorf("EXCEPT ALL = %d rows, want 3: %v", ea.Len(), ea)
	}
	// EXCEPT: distinct rows of l absent from r — {2}.
	ed := sortSetOp(t, &st, l, r, true, false)
	if ed.Len() != 1 || ed.Rows[0][0].AsInt() != 2 {
		t.Errorf("EXCEPT = %v", ed)
	}
	// Each operation sorted both operands.
	if st.SortRuns != 8 {
		t.Errorf("sort runs = %d, want 8", st.SortRuns)
	}
}

// The set-operation iterator charges each operand row once, when it
// collects it, and sorts the buffers it collected into: an INTERSECT ALL
// of n and m rows materializes the operands, the merged result and the
// drained result. It sorts each operand once; the comparison count is
// the merge sorts' and the merge's on this seed's data.
func TestSetOpIterChargesOperandsOnce(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	l, rr := randRelation(r, 300), randRelation(r, 200)
	var st Stats
	got := sortSetOp(t, &st, l, rr, false, true)
	if !MultisetEqual(setOpOracle(l, rr, false, true), got) {
		t.Fatal("INTERSECT ALL differs from the oracle")
	}
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
	if st.SortRuns != 2 || st.RowsSorted != 500 || st.Comparisons != 3874 {
		t.Errorf("sorts %d, rows sorted %d, comparisons %d; want 2, 500, 3874",
			st.SortRuns, st.RowsSorted, st.Comparisons)
	}
}
