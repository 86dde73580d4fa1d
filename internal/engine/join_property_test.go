package engine

import (
	"fmt"
	"math/rand"
	"testing"

	"uniqopt/internal/eval"
	"uniqopt/internal/sql/parser"
	"uniqopt/internal/value"
)

// randKeyedRelation builds a relation with a join column K (NULL-rich,
// small domain so collisions and runs occur) and a payload column.
func randKeyedRelation(r *rand.Rand, prefix string, n int) *Relation {
	rel := &Relation{Cols: []string{prefix + ".K", prefix + ".V"}}
	for i := 0; i < n; i++ {
		var k value.Value
		if r.Intn(4) == 0 {
			k = value.Null
		} else {
			k = value.Int(int64(r.Intn(5)))
		}
		rel.Rows = append(rel.Rows, value.Row{k, value.Int(int64(i))})
	}
	return rel
}

// Property: the hash-join iterator agrees, row for row and in order,
// with the selection over the Cartesian product on arbitrary NULL-rich
// multisets, for every trial.
func TestJoinImplementationsAgreeProperty(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	for trial := 0; trial < 200; trial++ {
		l := randKeyedRelation(r, "L", r.Intn(25))
		rr := randKeyedRelation(r, "R", r.Intn(25))
		var st Stats
		want := joinOracle(&st, l, rr, "L.K", "R.K")
		identicalRelations(t, want, hashJoin(&st, l, rr, []string{"L.K"}, []string{"R.K"}),
			fmt.Sprintf("trial %d: hash join vs selection over product\nL=%v\nR=%v", trial, l, rr))
	}
}

// Property: an equality join preserves exactly the pairs whose keys
// are both non-NULL and equal (an independent oracle over counts).
func TestJoinCardinalityOracle(t *testing.T) {
	r := rand.New(rand.NewSource(33))
	for trial := 0; trial < 100; trial++ {
		l := randKeyedRelation(r, "L", r.Intn(20))
		rr := randKeyedRelation(r, "R", r.Intn(20))
		want := 0
		for _, lr := range l.Rows {
			for _, x := range rr.Rows {
				if !lr[0].IsNull() && !x[0].IsNull() && value.Compare(lr[0], x[0]) == 0 {
					want++
				}
			}
		}
		var st Stats
		hj := hashJoin(&st, l, rr, []string{"L.K"}, []string{"R.K"})
		if hj.Len() != want {
			t.Fatalf("trial %d: join rows = %d, oracle = %d", trial, hj.Len(), want)
		}
	}
}

// The index-scan iterator must agree with scan+filter.
func TestIndexScanAgainstFilter(t *testing.T) {
	db := testDB(t)
	tbl := db.MustTable("PARTS")
	ix, err := tbl.CreateOrderedIndex("PNO_IX", "PNO")
	if err != nil {
		t.Fatal(err)
	}
	var st Stats
	full := okRel(Scan(ctx0, &st, tbl, "P"))
	env := &eval.Env{Cols: map[string]value.Value{}, Hosts: map[string]value.Value{}}
	indexScan := func(ords []int) *Relation {
		return okRel(Drain(ctx0, &st, NewIndexScanIter(&st, tbl, full.Cols, ords)))
	}

	for pno := int64(0); pno <= 10; pno++ {
		pred, _ := parser.ParseExpr(fmt.Sprintf("P.PNO = %d", pno))
		want, err := Filter(ctx0, &st, full, pred, env)
		if err != nil {
			t.Fatal(err)
		}
		ords, err := ix.Lookup(value.Row{value.Int(pno)})
		if err != nil {
			t.Fatal(err)
		}
		if !MultisetEqual(want, indexScan(ords)) {
			t.Fatalf("PNO=%d: index scan diverges from filter", pno)
		}
	}
	// Range.
	lo, hi := value.Int(1), value.Int(2)
	pred, _ := parser.ParseExpr("P.PNO BETWEEN 1 AND 2")
	want, err := Filter(ctx0, &st, full, pred, env)
	if err != nil {
		t.Fatal(err)
	}
	if !MultisetEqual(want, indexScan(ix.Range(&lo, &hi))) {
		t.Fatal("index range scan diverges from filter")
	}
	if st.IndexSeeks == 0 {
		t.Error("index seeks not counted")
	}
}
