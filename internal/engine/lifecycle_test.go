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

func TestCancelledContextStopsOperators(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	l := bigRelation("L", 10_000)
	r := bigRelation("R", 10_000)
	st := &Stats{}

	type opCase struct {
		name string
		run  func() (*Relation, error)
	}
	cases := []opCase{
		{"Product", func() (*Relation, error) { return Product(ctx, st, l, r) }},
		{"HashJoinIter", func() (*Relation, error) {
			return Drain(ctx, st, joinIter(st, NewRelationIter(st, l), NewRelationIter(st, r), []string{"L.K"}, []string{"R.K"}))
		}},
		{"DistinctSort", func() (*Relation, error) { return DistinctSort(ctx, st, l) }},
		{"DistinctSortIter", func() (*Relation, error) { return Drain(ctx, st, NewDistinctSortIter(st, NewRelationIter(st, l))) }},
		{"DistinctHashIter", func() (*Relation, error) { return Drain(ctx, st, NewDistinctHashIter(st, NewRelationIter(st, l))) }},
		{"SetOpIter", func() (*Relation, error) {
			return Drain(ctx, st, NewSetOpIter(st, NewRelationIter(st, l), NewRelationIter(st, r), false, false))
		}},
		{"Intersect", func() (*Relation, error) { return Intersect(ctx, st, l, r, false) }},
		{"Except", func() (*Relation, error) { return Except(ctx, st, l, r, false) }},
		{"Project", func() (*Relation, error) { return Project(ctx, st, l, []string{"L.K"}) }},
	}
	for _, c := range cases {
		rel, err := c.run()
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s under cancelled ctx: err = %v, want context.Canceled", c.name, err)
		}
		if rel != nil {
			t.Errorf("%s under cancelled ctx returned a partial relation", c.name)
		}
	}
}

// TestDeadlineLargeJoinPrompt is the ISSUE's acceptance check: a query
// whose join would run far longer than 10ms must return
// context.DeadlineExceeded promptly once the deadline passes.
func TestDeadlineLargeJoinPrompt(t *testing.T) {
	l := bigRelation("L", 60_000)
	r := bigRelation("R", 60_000)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	start := time.Now()
	rel, err := Product(ctx, &Stats{}, l, r) // 3.6e9 pairs: never finishes in 10ms
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if rel != nil {
		t.Fatal("partial relation escaped an expired deadline")
	}
	if elapsed > 2*time.Second {
		t.Fatalf("deadline observed after %v; cooperative polling is too coarse", elapsed)
	}
}

func TestMaxRowsBudget(t *testing.T) {
	l := bigRelation("L", 5_000)
	gov := NewGovernor(1_000, 0)
	ctx := WithGovernor(context.Background(), gov)
	st := &Stats{}
	rel, err := Product(ctx, st, l, l)
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
	rows, bytes := gov.Usage()
	if rows <= 1_000 || bytes <= 0 {
		t.Fatalf("governor usage (%d rows, %d bytes) did not record the overrun", rows, bytes)
	}
}

func TestMemBudget(t *testing.T) {
	l := bigRelation("L", 5_000)
	ctx := WithGovernor(context.Background(), NewGovernor(0, 64*1024))
	st := &Stats{}
	rel, err := Drain(ctx, st, NewDistinctHashIter(st, NewRelationIter(st, l)))
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
	l := bigRelation("L", 2_000)
	st := &Stats{}
	hashDistinct(st, l)
	if snap := st.Snapshot(); snap.RowsMaterialized == 0 || snap.BytesReserved == 0 {
		t.Fatalf("materialization counters idle without a governor: %s", &snap)
	}
}

func TestNilGovernorIsUnlimited(t *testing.T) {
	if g := NewGovernor(0, 0); g != nil {
		t.Fatal("NewGovernor(0,0) should be nil (unlimited)")
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
	g := NewGovernor(100, 10_000)
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
	ex := NewExecutor(db, nil)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for i, q := range queries {
		rel, err := ex.QueryContext(ctx, q)
		if !errors.Is(err, context.Canceled) {
			t.Errorf("query %d under cancelled ctx: %v", i, err)
		}
		if rel != nil {
			t.Errorf("query %d leaked a partial result", i)
		}
	}
}

// TestConcurrentHalfCancelled is the ISSUE's race test: concurrent
// queries through one shared executor, half cancelled mid-flight; the
// cancelled ones must fail with ctx.Err() and the survivors must stay
// byte-identical to a serial baseline.
func TestConcurrentHalfCancelled(t *testing.T) {
	db, err := workload.NewDB(workload.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	queries := parseWorkload(t)

	ref := NewExecutor(db, nil)
	want := make([]*Relation, len(queries))
	for i, q := range queries {
		if want[i], err = ref.Query(q); err != nil {
			t.Fatal(err)
		}
	}

	shared := NewExecutor(db, nil)
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
				rel, err := shared.QueryContext(context.Background(), q)
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
					rel, err := shared.QueryContext(ctx, q)
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
	if _, err := Project(ctx0, &Stats{}, l, []string{"L.K", "L.NOPE"}); err == nil ||
		!strings.Contains(err.Error(), "L.NOPE") {
		t.Fatalf("Project with unknown column: err = %v, want error naming L.NOPE", err)
	}
	if _, err := ColIndexes(l.Cols, []string{"L.MISSING"}); err == nil ||
		!strings.Contains(err.Error(), "L.MISSING") {
		t.Fatalf("ColIndexes with unknown key: err = %v, want error naming L.MISSING", err)
	}
	// An ordinal no input column answers to fails the assembly, not the
	// first row.
	st := &Stats{}
	if _, err := NewHashJoinIter(st, NewRelationIter(st, l), NewRelationIter(st, l),
		IdentityEmit(2, 2), []int{2}, []int{0}); err == nil || !strings.Contains(err.Error(), "#2") {
		t.Fatalf("NewHashJoinIter with a key ordinal out of range: err = %v", err)
	}
	if _, err := NewHashJoinIter(st, NewRelationIter(st, l), NewRelationIter(st, l),
		Emit{{Right: true, Ord: 2}}, []int{0}, []int{0}); err == nil || !strings.Contains(err.Error(), "#2") {
		t.Fatalf("NewHashJoinIter with an emit ordinal out of range: err = %v", err)
	}
	if _, err := NewProjectIter(st, NewRelationIter(st, l), []string{"L.X"}, []int{-1}); err == nil {
		t.Fatal("NewProjectIter with a negative ordinal assembled")
	}
}
