package engine

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

	"uniqopt/internal/eval"
	"uniqopt/internal/sql/parser"
	"uniqopt/internal/testleak"
	"uniqopt/internal/value"
	"uniqopt/internal/workload"
)

// bigRelation builds a relation large enough that a cross product or
// hash join over it takes well over any test deadline.
func bigRelation(prefix string, rows int) *Relation {
	rel := &Relation{Cols: []string{prefix + ".K", prefix + ".V"}}
	rel.Rows = make([]value.Row, rows)
	for i := range rel.Rows {
		rel.Rows[i] = value.Row{
			value.Int(int64(i % 97)),
			value.String_(fmt.Sprintf("%s-%d", prefix, i)),
		}
	}
	return rel
}

// settleGoroutines defers to the shared leak helper: poll until the
// goroutine count drops back to at most base or the grace period
// expires, returning the final count.
func settleGoroutines(base int) int { return testleak.Settle(base) }

// TestCancelledContextStopsOperators: every iterator polls the context
// at the top of its own Next, so a cancelled one stops it before its
// first batch, whichever operator it is.
func TestCancelledContextStopsOperators(t *testing.T) {
	sc := NewScratch()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	l := bigRelation("L", 10_000)
	r := bigRelation("R", 10_000)
	st := &Stats{}
	pred, err := parser.ParseExpr("L.K > 3")
	if err != nil {
		t.Fatal(err)
	}
	in := func(rel *Relation) Iterator { return NewRelationIter(sc, st, rel) }
	cases := []struct {
		name string
		it   Iterator
	}{
		{"ProductIter", prodIter(sc, st, in(l), in(r))},
		{"HashJoinIter", joinIter(sc, st, in(l), in(r), []string{"L.K"}, []string{"R.K"})},
		{"FilterIter", NewFilterIter(sc, st, in(l), eval.Prepare(pred, l.Cols, nil).Arm(nil, nil, nil))},
		{"ProjectIter", projIter(sc, st, in(l), "L.K")},
		{"DistinctSortIter", NewDistinctSortIter(sc, st, in(l))},
		{"DistinctHashIter", NewDistinctHashIter(sc, st, in(l))},
		{"SetOpIter/intersect", NewSetOpIter(sc, st, in(l), in(r), false, false)},
		{"SetOpIter/except", NewSetOpIter(sc, st, in(l), in(r), true, false)},
	}
	for _, c := range cases {
		b, err := c.it.Next(ctx)
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s under cancelled ctx: err = %v, want context.Canceled", c.name, err)
		}
		if b != nil {
			t.Errorf("%s under cancelled ctx returned a partial batch", c.name)
		}
		if err := c.it.Close(); err != nil {
			t.Errorf("%s: Close: %v", c.name, err)
		}
	}

	// The filter's row loop polls too: its child cancels the context
	// after handing over one batch of 3·cancelEvery rows, and the
	// predicate (IS NOT NULL) is no kernel, so the batch goes row by row.
	withBatchSize(t, 3*cancelEvery)
	pred, err = parser.ParseExpr("L.K IS NOT NULL")
	if err != nil {
		t.Fatal(err)
	}
	rctx, rcancel := context.WithCancel(context.Background())
	f := NewFilterIter(sc, st, &cancelAfter{Iterator: in(l), cancel: rcancel}, eval.Prepare(pred, l.Cols, nil).Arm(nil, nil, nil))
	if b, err := f.Next(rctx); !errors.Is(err, context.Canceled) || b != nil {
		t.Errorf("filter cancelled mid-batch: batch of %d, err %v; want nil, context.Canceled", len(b), err)
	}
	if err := f.Close(); err != nil {
		t.Error(err)
	}
}

// TestDeadlineLargeJoinPrompt: a product that would run far longer
// than 10ms must return context.DeadlineExceeded promptly once the
// deadline passes.
func TestDeadlineLargeJoinPrompt(t *testing.T) {
	sc := NewScratch()
	l := bigRelation("L", 60_000)
	r := bigRelation("R", 60_000)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	start := time.Now()
	st := &Stats{}
	// 3.6e9 pairs: never finishes in 10ms.
	_, err := consume(ctx, prodIter(sc, st, NewRelationIter(sc, st, l), NewRelationIter(sc, st, r)))
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("deadline observed after %v; cooperative polling is too coarse", elapsed)
	}
}

func TestMaxRowsBudget(t *testing.T) {
	sc := NewScratch()
	l := bigRelation("L", 5_000)
	gov := sc.Budget(1_000, 0)
	ctx := context.Background()
	st := &Stats{}
	rel, err := Drain(ctx, sc, st, prodIter(sc, st, NewRelationIter(sc, st, l), NewRelationIter(sc, st, l)))
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
	if rel != nil {
		t.Fatal("partial relation escaped a blown budget")
	}
	var be *BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("err %T is not *BudgetError", err)
	}
	if be.Resource != "rows" || be.Limit != 1_000 {
		t.Fatalf("BudgetError = %+v, want rows budget of 1000", be)
	}
	if rows, bytes := gov.Peak(); rows <= 1_000 || bytes <= 0 {
		t.Fatalf("governor peak (%d rows, %d bytes) did not record the overrun", rows, bytes)
	}
	if rows, bytes := gov.Usage(); rows != 0 || bytes != 0 {
		t.Fatalf("the failed query left %d rows / %d bytes charged", rows, bytes)
	}
}

func TestMemBudget(t *testing.T) {
	sc := NewScratch()
	l := bigRelation("L", 5_000)
	sc.Budget(0, 64*1024)
	ctx := context.Background()
	st := &Stats{}
	rel, err := Drain(ctx, sc, st, NewDistinctHashIter(sc, st, NewRelationIter(sc, st, l)))
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
	if rel != nil {
		t.Fatal("partial relation escaped a blown memory budget")
	}
	var be *BudgetError
	if !errors.As(err, &be) || be.Resource != "memory" {
		t.Fatalf("err = %v, want a memory *BudgetError", err)
	}
}

func TestStatsCountMaterializationsWithoutGovernor(t *testing.T) {
	sc := NewScratch()
	l := bigRelation("L", 2_000)
	st := &Stats{}
	hashDistinct(sc, st, l)
	if snap := st.Snapshot(); snap.RowsMaterialized == 0 || snap.BytesReserved == 0 {
		t.Fatalf("materialization counters idle without a governor: %s", &snap)
	}
}

func TestNilGovernorIsUnlimited(t *testing.T) {
	if g := NewScratch().Budget(0, 0); g != nil && !Poisoned {
		t.Fatal("Budget(0, 0) should be nil (unlimited)")
	}
	var g *Governor
	if err := g.Charge(1<<40, 1<<40); err != nil {
		t.Fatalf("nil governor charged: %v", err)
	}
	if r, b := g.Usage(); r != 0 || b != 0 {
		t.Fatal("nil governor reported usage")
	}
}

// TestRowBytesFollowsTheCell: a row is charged its slice header, its
// cells and its string payloads, the first two sized from the types —
// so the charge moved with value.Value's layout and cannot drift from
// it. On a 64-bit build that is 24 + 24n + len(strings).
func TestRowBytesFollowsTheCell(t *testing.T) {
	row := value.Row{value.Int(7), value.String_("seven"), value.Null, value.Bool(true), value.String_("")}
	want := int64(unsafe.Sizeof(value.Row{})) + 5*int64(unsafe.Sizeof(value.Value{})) + int64(len("seven"))
	if got := rowBytes(row); got != want {
		t.Errorf("rowBytes(%s) = %d, want %d", row, got, want)
	}
	if bits.UintSize == 64 && want != 24+24*5+5 {
		t.Errorf("a five-cell row holding 5 string bytes is charged %d bytes, want %d", want, 24+24*5+5)
	}
	if got, want := rowBytes(nil), int64(unsafe.Sizeof(value.Row{})); got != want {
		t.Errorf("rowBytes(nil) = %d, want the slice header's %d", got, want)
	}
}

func TestGovernorUsageTracksCharges(t *testing.T) {
	g := NewScratch().Budget(100, 10_000)
	if err := g.Charge(40, 4_000); err != nil {
		t.Fatal(err)
	}
	if r, b := g.Usage(); r != 40 || b != 4_000 {
		t.Fatalf("Usage() = (%d, %d), want (40, 4000)", r, b)
	}
}

func TestContainConvertsPanics(t *testing.T) {
	run := func() (err error) {
		defer Contain("engine.test", &err)
		panic("boom")
	}
	err := run()
	var ie *InternalError
	if !errors.As(err, &ie) {
		t.Fatalf("err %T, want *InternalError", err)
	}
	if ie.Op != "engine.test" || ie.Value != "boom" || len(ie.Stack) == 0 {
		t.Fatalf("InternalError = {Op:%q Value:%v stack:%d bytes}", ie.Op, ie.Value, len(ie.Stack))
	}
	if !strings.Contains(ie.Error(), "engine.test") {
		t.Fatalf("Error() = %q does not name the boundary", ie.Error())
	}
}

func TestContainUnwrapsErrorPanics(t *testing.T) {
	sentinel := errors.New("typed failure")
	run := func() (err error) {
		defer Contain("engine.test", &err)
		panic(sentinel)
	}
	if err := run(); !errors.Is(err, sentinel) {
		t.Fatalf("errors.Is through containment failed: %v", err)
	}
}

func TestContainPassesNestedInternalError(t *testing.T) {
	inner := &InternalError{Op: "inner", Value: "x"}
	run := func() (err error) {
		defer Contain("outer", &err)
		panic(inner)
	}
	err := run()
	var ie *InternalError
	if !errors.As(err, &ie) || ie.Op != "inner" {
		t.Fatalf("nested InternalError rewrapped: %v", err)
	}
}

func TestExecutorQueryContextContainsPanicAndCancels(t *testing.T) {
	db, err := workload.NewDB(workload.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	queries := parseWorkload(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for i, q := range queries {
		rel, err := runQuery(ctx, db, q, nil, &Stats{})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("query %d under cancelled ctx: %v", i, err)
		}
		if rel != nil {
			t.Errorf("query %d leaked a partial result", i)
		}
	}
	// A panic below the query boundary (here: no database to plan over)
	// comes back as an *InternalError naming the boundary.
	rel, err := runQuery(ctx0, nil, queries[0], nil, &Stats{})
	var ie *InternalError
	if !errors.As(err, &ie) || ie.Op != "engine test query" || rel != nil {
		t.Errorf("a panicking query: rel = %v, err = %v, want an *InternalError", rel, err)
	}
}

// TestConcurrentHalfCancelled: concurrent pipelines over one database,
// half cancelled mid-flight; the cancelled ones must fail with ctx.Err()
// and the survivors must stay equal to a serial baseline.
func TestConcurrentHalfCancelled(t *testing.T) {
	db, err := workload.NewDB(workload.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	queries := parseWorkload(t)

	want, _ := serialAnswers(t, db, queries)

	base := runtime.NumGoroutine()
	const pairs = 8
	var wg sync.WaitGroup
	errs := make(chan error, 2*pairs*len(queries))
	for p := 0; p < pairs; p++ {
		// Survivor: plain background context, results must match.
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i, q := range queries {
				rel, err := runQuery(context.Background(), db, q, nil, &Stats{})
				if err != nil {
					errs <- fmt.Errorf("survivor %d query %d: %w", p, i, err)
					return
				}
				if !MultisetEqual(rel, want[i]) {
					errs <- fmt.Errorf("survivor %d query %d: result differs from serial baseline", p, i)
					return
				}
			}
		}(p)
		// Victim: cancelled mid-flight.
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i, q := range queries {
				ctx, cancel := context.WithCancel(context.Background())
				done := make(chan struct{})
				go func() {
					defer close(done)
					rel, err := runQuery(ctx, db, q, nil, &Stats{})
					if err == nil {
						// The query may legitimately win the race
						// with cancel; then it must be correct.
						if !MultisetEqual(rel, want[i]) {
							errs <- fmt.Errorf("victim %d query %d: completed with wrong rows", p, i)
						}
						return
					}
					if !errors.Is(err, context.Canceled) {
						errs <- fmt.Errorf("victim %d query %d: err = %v, want context.Canceled", p, i, err)
					}
					if rel != nil {
						errs <- fmt.Errorf("victim %d query %d: partial result escaped", p, i)
					}
				}()
				cancel()
				<-done
			}
		}(p)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if n := settleGoroutines(base); n > base {
		t.Errorf("goroutines leaked: %d before, %d after", base, n)
	}
}

// TestColIndexesErrorFlow pins the satellite fix: an unknown column at
// an operator boundary is an error naming the column, not a panic.
func TestColIndexesErrorFlow(t *testing.T) {
	l := bigRelation("L", 10)
	if _, err := ColIndexes(l.Cols, []string{"L.K", "L.MISSING"}); err == nil ||
		!strings.Contains(err.Error(), "L.MISSING") {
		t.Fatalf("ColIndexes with unknown key: err = %v, want error naming L.MISSING", err)
	}
	// An ordinal no input column answers to fails the plan's resolution,
	// once per statement shape, not the first row.
	if err := (&Join{Emit: IdentityEmit(2, 2), Pi: []int{2}, Bi: []int{0}}).Resolve(l.Cols, l.Cols); err == nil ||
		!strings.Contains(err.Error(), "#2") {
		t.Fatalf("a hash join with a key ordinal out of range resolved: err = %v", err)
	}
	if err := (&Join{Emit: Emit{{Right: true, Ord: 2}}, Pi: []int{0}, Bi: []int{0}}).Resolve(l.Cols, l.Cols); err == nil ||
		!strings.Contains(err.Error(), "#2") {
		t.Fatalf("a hash join with an emit ordinal out of range resolved: err = %v", err)
	}
	if err := (&Join{Emit: IdentityEmit(2, 2), Pi: []int{0}}).Resolve(l.Cols, l.Cols); err == nil {
		t.Fatal("a hash join with one probe and no build key column resolved")
	}
	if err := (&Projection{Cols: []string{"L.X"}, Idx: []int{-1}}).Resolve(l.Cols); err == nil {
		t.Fatal("a projection with a negative ordinal resolved")
	}
}
