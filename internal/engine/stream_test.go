package engine

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"uniqopt/internal/eval"
	"uniqopt/internal/sql/ast"
	"uniqopt/internal/value"
)

// withBatchSize scopes a batch-size override to one test, so
// batch-boundary behavior can be exercised at deliberately tiny sizes.
func withBatchSize(t *testing.T, n int) {
	t.Helper()
	prev := SetBatchSize(n)
	t.Cleanup(func() { SetBatchSize(prev) })
}

// streamBatchSizes are the sizes every equivalence test runs under:
// degenerate (1), tiny primes that straddle batch boundaries, and the
// default.
var streamBatchSizes = []int{1, 3, 5, DefaultBatchSize}

func mustDrain(t *testing.T, sc *Scratch, st *Stats, it Iterator) *Relation {
	t.Helper()
	rel, err := Drain(context.Background(), sc, st, it)
	if err != nil {
		t.Fatalf("drain: %v", err)
	}
	return rel
}

func gtPred() (ast.Expr, *eval.Env) {
	return &ast.Compare{Op: ast.GtOp,
		L: &ast.ColumnRef{Qualifier: "T", Column: "A"}, R: &ast.IntLit{V: 4},
	}, &eval.Env{Cols: map[string]value.Value{}}
}

// TestStreamScanEquivalence: relation streaming reproduces the
// materialized rows at every batch size, and batch sizing is honored.
func TestStreamScanEquivalence(t *testing.T) {
	sc := NewScratch()
	r := rand.New(rand.NewSource(71))
	rel := randomRelation(r, "T", 997)
	for _, bs := range streamBatchSizes {
		withBatchSize(t, bs)
		st := &Stats{}
		got := mustDrain(t, sc, st, NewRelationIter(sc, st, rel))
		identicalRelations(t, rel, got, "relation stream")
		wantBatches := (len(rel.Rows) + bs - 1) / bs
		if snap := st.Snapshot(); snap.Batches != int64(wantBatches) {
			t.Fatalf("bs=%d: batches=%d want %d", bs, snap.Batches, wantBatches)
		}
	}
}

// TestStreamOperatorEquivalence: the filter, project, distinct, hash
// join and product iterators are byte-identical at every batch size to
// their definitions (hash distinct to the first occurrences in input
// order, sort distinct to them sorted), and the set-operation iterator
// is, as a multiset, the oracle's ≐-counted answer, in sorted order.
func TestStreamOperatorEquivalence(t *testing.T) {
	sc := NewScratch()
	r := rand.New(rand.NewSource(72))
	l := randomRelation(r, "T", 611)
	rr := randomRelation(r, "R", 173)
	pred, env := gtPred()

	wantFilter := filterOracle(l, pred, env)
	wantProject := projectOracle(l, "T.B", "T.K")
	wantDistinct := firstOccurrences(l)
	if !MultisetEqual(distinctOracle(l), wantDistinct) {
		t.Fatal("the first-occurrence oracle disagrees with the oracle's DISTINCT")
	}
	wantSorted := &Relation{Cols: l.Cols, Rows: slices.Clone(wantDistinct.Rows)}
	slices.SortStableFunc(wantSorted.Rows, value.OrderCompareRows)
	wantJoin := joinOracle(l, rr, "T.K", "R.K")
	smallL := &Relation{Cols: l.Cols, Rows: l.Rows[:37]}
	smallR := &Relation{Cols: rr.Cols, Rows: rr.Rows[:11]}
	wantProduct := productOracle(smallL, smallR)

	for _, bs := range streamBatchSizes {
		withBatchSize(t, bs)

		st := &Stats{}
		gotFilter := mustDrain(t, sc, st, NewFilterIter(sc, st, NewRelationIter(sc, st, l), eval.Prepare(pred, l.Cols, nil).Arm(nil, nil, nil)))
		identicalRelations(t, wantFilter, gotFilter, "stream filter")

		st = &Stats{}
		gotProject := mustDrain(t, sc, st, projIter(sc, st, NewRelationIter(sc, st, l), "T.B", "T.K"))
		identicalRelations(t, wantProject, gotProject, "stream project")

		st = &Stats{}
		identicalRelations(t, wantDistinct, hashDistinct(sc, st, l), "stream distinct")

		st = &Stats{}
		identicalRelations(t, wantJoin, hashJoin(sc, st, l, rr, []string{"T.K"}, []string{"R.K"}), "stream hash join")

		st = &Stats{}
		gotProduct := mustDrain(t, sc, st, prodIter(sc, st, NewRelationIter(sc, st, smallL), NewRelationIter(sc, st, smallR)))
		identicalRelations(t, wantProduct, gotProduct, "stream product")

		st = &Stats{}
		gotSorted := mustDrain(t, sc, st, NewDistinctSortIter(sc, st, NewRelationIter(sc, st, l)))
		identicalRelations(t, wantSorted, gotSorted, "stream distinct sort")

		for _, except := range []bool{false, true} {
			for _, all := range []bool{false, true} {
				a := projectOracle(l, "T.A", "T.B")
				b := projectOracle(rr, "R.A", "R.B")
				st = &Stats{}
				got := mustDrain(t, sc, st, NewSetOpIter(sc, st, NewRelationIter(sc, st, a), NewRelationIter(sc, st, b), except, all))
				what := fmt.Sprintf("stream set operation except=%v all=%v", except, all)
				if !MultisetEqual(setOpOracle(a, b, except, all), got) {
					t.Fatalf("%s: differs from the oracle", what)
				}
				for i := 1; i < got.Len(); i++ {
					if value.OrderCompareRows(got.Rows[i-1], got.Rows[i]) > 0 {
						t.Fatalf("%s: row %d is out of the merge's sorted order", what, i)
					}
				}
			}
		}
	}
}

// TestStreamCollisionFallback: with every hash degenerate and batches
// of two, hash distinct and the hash join still compare rows and
// produce correct output across batch boundaries.
func TestStreamCollisionFallback(t *testing.T) {
	sc := NewScratch()
	withDegenerateHash(t)
	withBatchSize(t, 2)
	rel := craftedRows()

	wantD := distinctOracle(rel)
	st := &Stats{}
	gotD := mustDrain(t, sc, st, NewDistinctHashIter(sc, st, NewRelationIter(sc, st, rel)))
	if !MultisetEqual(wantD, gotD) {
		t.Fatalf("collision distinct: %d rows, want %d", gotD.Len(), wantD.Len())
	}

	l := craftedRows()
	rr := &Relation{Cols: []string{"R.K", "R.W"}, Rows: []value.Row{
		{value.Int(1), value.String_("x")},
		{value.Int(3), value.String_("y")},
		{value.Null, value.String_("z")},
		{value.Int(1), value.String_("w")},
	}}
	want := joinOracle(l, rr, "T.K", "R.K")
	st = &Stats{}
	identicalRelations(t, want, hashJoin(sc, st, l, rr, []string{"T.K"}, []string{"R.K"}), "collision stream join")
}

// consume pulls it to its end the way a client that streams results out
// does — retaining nothing — then closes it, returning the row count.
func consume(ctx context.Context, it Iterator) (n int, err error) {
	defer it.Close()
	for {
		b, err := it.Next(ctx)
		if err != nil || b == nil {
			return n, err
		}
		n += len(b)
	}
}

// TestStreamGovernorAccounting: streaming releases in-flight charges
// (usage returns to zero after Close), records a true peak, and that
// peak is far below the materialized footprint of the same pipeline.
func TestStreamGovernorAccounting(t *testing.T) {
	sc := NewScratch()
	withBatchSize(t, 64)
	r := rand.New(rand.NewSource(76))
	rel := randomRelation(r, "T", 20000)
	gov := sc.Budget(0, 1<<40)
	ctx := context.Background()
	pred, _ := gtPred()

	st := &Stats{}
	n, err := consume(ctx, NewFilterIter(sc, st, NewRelationIter(sc, st, rel), eval.Prepare(pred, rel.Cols, nil).Arm(nil, nil, nil)))
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("filter emitted nothing")
	}
	if rows, bytes := gov.Usage(); rows != 0 || bytes != 0 {
		t.Fatalf("usage after close: rows=%d bytes=%d, want 0", rows, bytes)
	}
	peakRows, peakBytes := gov.Peak()
	if peakRows == 0 || peakBytes == 0 {
		t.Fatal("no peak recorded")
	}

	// The same pipeline materialized: its peak must dwarf streaming's.
	scM := NewScratch()
	govM := scM.Budget(0, 1<<40)
	ctxM := context.Background()
	stM := &Stats{}
	outM, err := Drain(ctxM, scM, stM, NewFilterIter(scM, stM, NewRelationIter(scM, stM, rel), eval.Prepare(pred, rel.Cols, nil).Arm(nil, nil, nil)))
	if err != nil {
		t.Fatal(err)
	}
	if outM.Len() != n {
		t.Fatalf("materialized filter rows %d != streamed %d", outM.Len(), n)
	}
	_, matPeak := govM.Peak()
	if peakBytes*4 > matPeak {
		t.Fatalf("streaming peak %d not well below materialized peak %d", peakBytes, matPeak)
	}
}

// TestStreamBudget: a pipeline whose full materialization exceeds the
// budget streams to completion under it, while a blocking operator
// (distinct over mostly-unique rows) binds the budget and fails fast.
func TestStreamBudget(t *testing.T) {
	sc := NewScratch()
	withBatchSize(t, 128)
	r := rand.New(rand.NewSource(77))
	rel := randomRelation(r, "T", 50000)
	pred, _ := gtPred()

	// Budget far below the relation's footprint but far above one batch.
	budget := int64(1 << 20) // 1 MiB
	gov := sc.Budget(0, budget)
	ctx := context.Background()
	st := &Stats{}
	if _, err := consume(ctx, NewFilterIter(sc, st, NewRelationIter(sc, st, rel), eval.Prepare(pred, rel.Cols, nil).Arm(nil, nil, nil))); err != nil {
		t.Fatalf("streaming pipeline should fit in budget: %v", err)
	}
	if _, peak := gov.Peak(); peak > budget {
		t.Fatalf("peak %d exceeded budget %d", peak, budget)
	}

	// The materializing counterpart fails on the same budget.
	scM := NewScratch()
	scM.Budget(0, budget)
	ctxM := context.Background()
	stM := &Stats{}
	if _, err := Drain(ctxM, scM, stM, NewFilterIter(scM, stM, NewRelationIter(scM, stM, rel), eval.Prepare(pred, rel.Cols, nil).Arm(nil, nil, nil))); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("materializing filter: err=%v, want budget exceeded", err)
	}

	// A blocking streaming operator still binds: distinct must hold
	// every distinct row, which overflows the budget mid-stream.
	scB := NewScratch()
	scB.Budget(0, budget)
	ctxB := context.Background()
	stB := &Stats{}
	if _, err := consume(ctxB, NewDistinctHashIter(scB, stB, NewRelationIter(scB, stB, rel))); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("blocking distinct: err=%v, want budget exceeded", err)
	}
}

// TestStreamCancellation: an expired context stops a streaming
// pipeline between batches.
func TestStreamCancellation(t *testing.T) {
	sc := NewScratch()
	withBatchSize(t, 8)
	r := rand.New(rand.NewSource(78))
	rel := randomRelation(r, "T", 1000)
	ctx, cancel := context.WithCancel(context.Background())
	st := &Stats{}
	it := NewDistinctHashIter(sc, st, NewRelationIter(sc, st, rel))
	if _, err := it.Next(ctx); err != nil {
		t.Fatalf("first batch: %v", err)
	}
	cancel()
	var err error
	for i := 0; i < 10 && err == nil; i++ {
		_, err = it.Next(ctx)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err=%v, want context.Canceled", err)
	}
	if cerr := it.Close(); cerr != nil {
		t.Fatal(cerr)
	}
}

// TestStreamEmptyInputs: every streaming operator handles empty
// inputs, and Close before exhaustion is safe.
func TestStreamEmptyInputs(t *testing.T) {
	sc := NewScratch()
	withBatchSize(t, 3)
	empty := &Relation{Cols: []string{"T.K", "T.A", "T.B"}}
	r := rand.New(rand.NewSource(79))
	rel := randomRelation(r, "R", 10)
	pred, _ := gtPred()

	st := &Stats{}
	if got := mustDrain(t, sc, st, NewFilterIter(sc, st, NewRelationIter(sc, st, empty), eval.Prepare(pred, empty.Cols, nil).Arm(nil, nil, nil))); got.Len() != 0 {
		t.Fatal("filter of empty not empty")
	}
	st = &Stats{}
	if got := mustDrain(t, sc, st, NewDistinctHashIter(sc, st, NewRelationIter(sc, st, empty))); got.Len() != 0 {
		t.Fatal("distinct of empty not empty")
	}
	st = &Stats{}
	if got := hashJoin(sc, st, empty, rel, []string{"T.K"}, []string{"R.K"}); got.Len() != 0 {
		t.Fatal("join with empty probe not empty")
	}
	st = &Stats{}
	if got := mustDrain(t, sc, st, prodIter(sc, st, NewRelationIter(sc, st, rel), NewRelationIter(sc, st, empty))); got.Len() != 0 {
		t.Fatal("product with empty right not empty")
	}
	st = &Stats{}
	if got := mustDrain(t, sc, st, NewSetOpIter(sc, st, NewRelationIter(sc, st, empty), NewRelationIter(sc, st, rel), true, true)); got.Len() != 0 {
		t.Fatal("empty EXCEPT ALL something not empty")
	}
	// Close before exhaustion releases cleanly.
	st = &Stats{}
	it := NewDistinctHashIter(sc, st, NewRelationIter(sc, st, rel))
	if _, err := it.Next(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
}
