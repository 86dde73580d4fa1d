package engine

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
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

func mustDrain(t *testing.T, st *Stats, it Iterator) *Relation {
	t.Helper()
	rel, err := Drain(context.Background(), st, it)
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
	r := rand.New(rand.NewSource(71))
	rel := randomRelation(r, "T", 997)
	for _, bs := range streamBatchSizes {
		withBatchSize(t, bs)
		st := &Stats{}
		got := mustDrain(t, st, NewRelationIter(st, rel))
		identicalRelations(t, rel, got, "relation stream")
		wantBatches := (len(rel.Rows) + bs - 1) / bs
		if snap := st.Snapshot(); snap.Batches != int64(wantBatches) {
			t.Fatalf("bs=%d: batches=%d want %d", bs, snap.Batches, wantBatches)
		}
	}
}

// TestStreamOperatorEquivalence: the filter, project, distinct, hash
// join, product and set-operation iterators are byte-identical to the
// reference executor's operators at every batch size (hash distinct,
// which the reference does not have, to the first occurrences in input
// order and, as a multiset, to DistinctSort).
func TestStreamOperatorEquivalence(t *testing.T) {
	forceSerial(t)
	r := rand.New(rand.NewSource(72))
	l := randomRelation(r, "T", 611)
	rr := randomRelation(r, "R", 173)
	ctx := context.Background()
	pred, env := gtPred()

	st0 := &Stats{}
	wantFilter := okRel(Filter(ctx, st0, l, pred, env))
	wantProject := okRel(Project(ctx, st0, l, []string{"T.B", "T.K"}))
	wantSorted := okRel(DistinctSort(ctx, st0, l))
	wantDistinct := firstOccurrences(l)
	if !MultisetEqual(wantSorted, wantDistinct) {
		t.Fatal("the first-occurrence oracle disagrees with DistinctSort")
	}
	wantJoin := joinOracle(st0, l, rr, "T.K", "R.K")
	smallL := &Relation{Cols: l.Cols, Rows: l.Rows[:37]}
	smallR := &Relation{Cols: rr.Cols, Rows: rr.Rows[:11]}
	wantProduct := okRel(Product(ctx, st0, smallL, smallR))

	for _, bs := range streamBatchSizes {
		withBatchSize(t, bs)

		st := &Stats{}
		gotFilter := mustDrain(t, st, NewFilterIter(st, NewRelationIter(st, l), pred, env))
		identicalRelations(t, wantFilter, gotFilter, "stream filter")

		st = &Stats{}
		gotProject := mustDrain(t, st, projIter(st, NewRelationIter(st, l), "T.B", "T.K"))
		identicalRelations(t, wantProject, gotProject, "stream project")

		st = &Stats{}
		identicalRelations(t, wantDistinct, hashDistinct(st, l), "stream distinct")

		st = &Stats{}
		identicalRelations(t, wantJoin, hashJoin(st, l, rr, []string{"T.K"}, []string{"R.K"}), "stream hash join")

		st = &Stats{}
		gotProduct := mustDrain(t, st, prodIter(st, NewRelationIter(st, smallL), NewRelationIter(st, smallR)))
		identicalRelations(t, wantProduct, gotProduct, "stream product")

		st = &Stats{}
		gotSorted := mustDrain(t, st, NewDistinctSortIter(st, NewRelationIter(st, l)))
		identicalRelations(t, wantSorted, gotSorted, "stream distinct sort")

		for _, except := range []bool{false, true} {
			for _, all := range []bool{false, true} {
				a := okRel(Project(ctx, st0, l, []string{"T.A", "T.B"}))
				b := okRel(Project(ctx, st0, rr, []string{"R.A", "R.B"}))
				merge, hashed := IntersectSort, Intersect
				if except {
					merge, hashed = ExceptSort, Except
				}
				st = &Stats{}
				got := mustDrain(t, st, NewSetOpIter(st, NewRelationIter(st, a), NewRelationIter(st, b), except, all))
				what := fmt.Sprintf("stream set operation except=%v all=%v", except, all)
				identicalRelations(t, okRel(merge(ctx, st0, a, b, all)), got, what)
				if !MultisetEqual(okRel(hashed(ctx, st0, a, b, all)), got) {
					t.Fatalf("%s: differs from the reference executor's operator", what)
				}
			}
		}
	}
}

// TestStreamParallelEquivalence: the pipelined exchange (filter,
// project) and partition-parallel streaming distinct produce output
// byte-identical to serial streaming under a wide worker pool and a
// threshold that forces the parallel paths.
func TestStreamParallelEquivalence(t *testing.T) {
	pw := SetWorkers(4)
	t.Cleanup(func() { SetWorkers(pw) })
	pt := SetParallelThreshold(1)
	t.Cleanup(func() { SetParallelThreshold(pt) })

	r := rand.New(rand.NewSource(73))
	l := randomRelation(r, "T", 1201)
	pred, env := gtPred()

	ctx := context.Background()
	st0 := &Stats{}
	wantFilter := okRel(Filter(ctx, st0, l, pred, env))
	wantProject := okRel(Project(ctx, st0, l, []string{"T.B", "T.K"}))
	wantDistinct := firstOccurrences(l)

	for _, bs := range []int{1, 3, 64, DefaultBatchSize} {
		withBatchSize(t, bs)

		st := &Stats{}
		gotFilter := mustDrain(t, st, NewFilterIter(st, NewRelationIter(st, l), pred, env))
		identicalRelations(t, wantFilter, gotFilter, "exchange filter")
		if bs >= 64 && st.Snapshot().ParallelRuns == 0 {
			t.Fatalf("bs=%d: exchange filter did not take the parallel path", bs)
		}

		st = &Stats{}
		pit := projIter(st, NewRelationIter(st, l), "T.B", "T.K")
		gotProject := mustDrain(t, st, pit)
		identicalRelations(t, wantProject, gotProject, "exchange project")
		if ParallelWidth(pit) != 4 {
			t.Fatalf("bs=%d: exchange project reports width %d, want 4", bs, ParallelWidth(pit))
		}

		st = &Stats{}
		dit := NewDistinctHashIter(st, NewRelationIter(st, l))
		identicalRelations(t, wantDistinct, mustDrain(t, st, dit), "parallel stream distinct")
		if ParallelWidth(dit) != 4 {
			t.Fatalf("bs=%d: partitioned distinct reports width %d, want 4", bs, ParallelWidth(dit))
		}
	}
}

// TestStreamDistinctMixedSerialParallel: one distinct stream mixes the
// serial and parallel dedup paths when batch sizes straddle the
// parallel threshold (e.g. a final partial batch below it). Both paths
// must share one coherent partitioned dedup state: a duplicate whose
// first occurrence was inserted by a parallel worker into a non-zero
// partition must still be caught by a later serial batch.
func TestStreamDistinctMixedSerialParallel(t *testing.T) {
	pw := SetWorkers(4)
	t.Cleanup(func() { SetWorkers(pw) })
	pt := SetParallelThreshold(4)
	t.Cleanup(func() { SetParallelThreshold(pt) })
	withBatchSize(t, 4)

	// The first batch of 4 clears the threshold and dedups in parallel;
	// the final partial batch of 2 falls below it, dedups serially, and
	// repeats rows the parallel workers already inserted.
	rel := NewRelation("T.K")
	for _, k := range []int64{0, 1, 2, 3, 0, 1} {
		rel.Rows = append(rel.Rows, value.Row{value.Int(k)})
	}
	st := &Stats{}
	got := mustDrain(t, st, NewDistinctHashIter(st, NewRelationIter(st, rel)))
	want := &Relation{Cols: rel.Cols, Rows: rel.Rows[:4]}
	identicalRelations(t, want, got, "mixed serial/parallel distinct")
	if st.Snapshot().ParallelRuns == 0 {
		t.Fatal("first batch did not take the parallel path")
	}

	// Equivalence sweep against the serial answer, with batch sizes and
	// thresholds chosen so streams cut over mid-flight both ways.
	r := rand.New(rand.NewSource(75))
	big := randomRelation(r, "T", 1201)
	wantBig := firstOccurrences(big)
	for _, bs := range []int{3, 5, 7, 64} {
		for _, th := range []int{2, 4, 8} {
			SetBatchSize(bs)
			SetParallelThreshold(th)
			st := &Stats{}
			got := mustDrain(t, st, NewDistinctHashIter(st, NewRelationIter(st, big)))
			identicalRelations(t, wantBig, got,
				fmt.Sprintf("mixed distinct bs=%d threshold=%d", bs, th))
		}
	}
}

// TestAutoDispatch pins the one parallelism selection rule: a filter or
// projection puts itself on an exchange exactly when the pool is wider
// than one and its input's size hint clears the threshold — never for a
// small input, an input of unknown size, or a subquery-bearing
// predicate — and the results stay identical either way.
func TestAutoDispatch(t *testing.T) {
	r := rand.New(rand.NewSource(19))
	rel := randomRelation(r, "T", 6000)
	pred, env := gtPred()
	sub := &ast.And{L: pred, R: &ast.Exists{Query: &ast.Select{}}}
	forceSerial(t)
	want := okRel(Project(ctx0, &Stats{}, okRel(Filter(ctx0, &Stats{}, rel, pred, env)), []string{"T.K"}))

	pipeline := func(st *Stats, p ast.Expr, in Iterator) (filter, project Iterator) {
		filter = NewFilterIter(st, in, p, env)
		return filter, projIter(st, filter, "T.K")
	}
	// unsized hides its child's size hint.
	type unsized struct{ Iterator }
	for _, c := range []struct {
		name               string
		workers, threshold int
		pred               ast.Expr
		in                 func(*Stats) Iterator
		wide               bool
	}{
		{"above threshold", 4, 4096, pred, func(st *Stats) Iterator { return NewRelationIter(st, rel) }, true},
		{"below threshold", 4, 6001, pred, func(st *Stats) Iterator { return NewRelationIter(st, rel) }, false},
		{"one worker", 1, 1, pred, func(st *Stats) Iterator { return NewRelationIter(st, rel) }, false},
		{"unknown size", 4, 1, pred, func(st *Stats) Iterator { return unsized{NewRelationIter(st, rel)} }, false},
	} {
		SetWorkers(c.workers)
		pt := SetParallelThreshold(c.threshold)
		st := &Stats{}
		filter, project := pipeline(st, c.pred, c.in(st))
		got := mustDrain(t, st, project)
		SetParallelThreshold(pt)
		identicalRelations(t, want, got, c.name)
		for what, it := range map[string]Iterator{"filter": filter, "project": project} {
			if w := ParallelWidth(it); (w > 0) != c.wide || (c.wide && w != c.workers) {
				t.Errorf("%s: %s ran %d wide, want wide=%v", c.name, what, w, c.wide)
			}
		}
		if runs := st.Snapshot().ParallelRuns; (runs > 0) != c.wide {
			t.Errorf("%s: parallel runs = %d, want wide=%v", c.name, runs, c.wide)
		}
	}
	// A subquery-bearing predicate stays on the caller's goroutine
	// whatever the input size.
	SetWorkers(4)
	pt := SetParallelThreshold(1)
	defer SetParallelThreshold(pt)
	st := &Stats{}
	if w := ParallelWidth(NewFilterIter(st, NewRelationIter(st, rel), sub, env)); w != 0 {
		t.Errorf("subquery-bearing filter assembled on a %d-wide exchange", w)
	}
	if _, ok := NewFilterIter(st, NewRelationIter(st, rel), sub, env).(*filterIter); !ok {
		t.Error("subquery-bearing filter is not the serial filter iterator")
	}
	if _, ok := NewFilterIter(st, NewRelationIter(st, rel), pred, env).(*exchangeIter); !ok {
		t.Error("parallel-safe filter over a sized input is not an exchange")
	}
}

// TestStreamCollisionFallback: with every hash degenerate and batches
// of two, hash distinct and the hash join still compare rows and
// produce correct output across batch boundaries.
func TestStreamCollisionFallback(t *testing.T) {
	forceSerial(t)
	withDegenerateHash(t)
	withBatchSize(t, 2)
	ctx := context.Background()
	rel := craftedRows()

	st0 := &Stats{}
	wantD, err := DistinctSort(ctx, st0, rel)
	if err != nil {
		t.Fatal(err)
	}
	st := &Stats{}
	gotD := mustDrain(t, st, NewDistinctHashIter(st, NewRelationIter(st, rel)))
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
	want := joinOracle(&Stats{}, l, rr, "T.K", "R.K")
	st = &Stats{}
	identicalRelations(t, want, hashJoin(st, l, rr, []string{"T.K"}, []string{"R.K"}), "collision stream join")
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
	forceSerial(t)
	withBatchSize(t, 64)
	r := rand.New(rand.NewSource(76))
	rel := randomRelation(r, "T", 20000)
	gov := NewGovernor(0, 1<<40)
	ctx := WithGovernor(context.Background(), gov)
	pred, env := gtPred()

	st := &Stats{}
	n, err := consume(ctx, NewFilterIter(st, NewRelationIter(st, rel), pred, env))
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
	govM := NewGovernor(0, 1<<40)
	ctxM := WithGovernor(context.Background(), govM)
	stM := &Stats{}
	outM, err := Filter(ctxM, stM, rel, pred, env)
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
	forceSerial(t)
	withBatchSize(t, 128)
	r := rand.New(rand.NewSource(77))
	rel := randomRelation(r, "T", 50000)
	pred, env := gtPred()

	// Budget far below the relation's footprint but far above one batch.
	budget := int64(1 << 20) // 1 MiB
	gov := NewGovernor(0, budget)
	ctx := WithGovernor(context.Background(), gov)
	st := &Stats{}
	if _, err := consume(ctx, NewFilterIter(st, NewRelationIter(st, rel), pred, env)); err != nil {
		t.Fatalf("streaming pipeline should fit in budget: %v", err)
	}
	if _, peak := gov.Peak(); peak > budget {
		t.Fatalf("peak %d exceeded budget %d", peak, budget)
	}

	// The materializing counterpart fails on the same budget.
	govM := NewGovernor(0, budget)
	ctxM := WithGovernor(context.Background(), govM)
	stM := &Stats{}
	if _, err := Filter(ctxM, stM, rel, pred, env); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("materializing filter: err=%v, want budget exceeded", err)
	}

	// A blocking streaming operator still binds: distinct must hold
	// every distinct row, which overflows the budget mid-stream.
	govB := NewGovernor(0, budget)
	ctxB := WithGovernor(context.Background(), govB)
	stB := &Stats{}
	if _, err := consume(ctxB, NewDistinctHashIter(stB, NewRelationIter(stB, rel))); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("blocking distinct: err=%v, want budget exceeded", err)
	}
}

// TestStreamCancellation: an expired context stops a streaming
// pipeline between batches.
func TestStreamCancellation(t *testing.T) {
	forceSerial(t)
	withBatchSize(t, 8)
	r := rand.New(rand.NewSource(78))
	rel := randomRelation(r, "T", 1000)
	ctx, cancel := context.WithCancel(context.Background())
	st := &Stats{}
	it := NewDistinctHashIter(st, NewRelationIter(st, rel))
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
	forceSerial(t)
	withBatchSize(t, 3)
	empty := &Relation{Cols: []string{"T.K", "T.A", "T.B"}}
	r := rand.New(rand.NewSource(79))
	rel := randomRelation(r, "R", 10)
	pred, env := gtPred()

	st := &Stats{}
	if got := mustDrain(t, st, NewFilterIter(st, NewRelationIter(st, empty), pred, env)); got.Len() != 0 {
		t.Fatal("filter of empty not empty")
	}
	st = &Stats{}
	if got := mustDrain(t, st, NewDistinctHashIter(st, NewRelationIter(st, empty))); got.Len() != 0 {
		t.Fatal("distinct of empty not empty")
	}
	st = &Stats{}
	if got := hashJoin(st, empty, rel, []string{"T.K"}, []string{"R.K"}); got.Len() != 0 {
		t.Fatal("join with empty probe not empty")
	}
	st = &Stats{}
	if got := mustDrain(t, st, prodIter(st, NewRelationIter(st, rel), NewRelationIter(st, empty))); got.Len() != 0 {
		t.Fatal("product with empty right not empty")
	}
	st = &Stats{}
	if got := mustDrain(t, st, NewSetOpIter(st, NewRelationIter(st, empty), NewRelationIter(st, rel), true, true)); got.Len() != 0 {
		t.Fatal("empty EXCEPT ALL something not empty")
	}
	// Close before exhaustion releases cleanly.
	st = &Stats{}
	it := NewDistinctHashIter(st, NewRelationIter(st, rel))
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
