package engine

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"uniqopt/internal/catalog"
	"uniqopt/internal/eval"
	"uniqopt/internal/sql/ast"
	"uniqopt/internal/sql/parser"
	"uniqopt/internal/storage"
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
// with nested loops on arbitrary NULL-rich multisets, for every trial.
func TestJoinImplementationsAgreeProperty(t *testing.T) {
	sc := NewScratch()
	r := rand.New(rand.NewSource(31))
	for trial := 0; trial < 200; trial++ {
		l := randKeyedRelation(r, "L", r.Intn(25))
		rr := randKeyedRelation(r, "R", r.Intn(25))
		var st Stats
		want := joinOracle(l, rr, "L.K", "R.K")
		identicalRelations(t, want, hashJoin(sc, &st, l, rr, []string{"L.K"}, []string{"R.K"}),
			fmt.Sprintf("trial %d: hash join vs nested loops\nL=%v\nR=%v", trial, l, rr))
	}
}

// Property: an equality join preserves exactly the pairs whose keys
// are both non-NULL and equal (an independent oracle over counts).
func TestJoinCardinalityOracle(t *testing.T) {
	sc := NewScratch()
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
		hj := hashJoin(sc, &st, l, rr, []string{"L.K"}, []string{"R.K"})
		if hj.Len() != want {
			t.Fatalf("trial %d: join rows = %d, oracle = %d", trial, hj.Len(), want)
		}
	}
}

// The index-scan iterator must agree with scan+filter.
func TestIndexScanAgainstFilter(t *testing.T) {
	sc := NewScratch()
	db := testDB(t)
	tbl := db.MustTable("PARTS")
	ix, err := tbl.CreateOrderedIndex("PNO_IX", "PNO")
	if err != nil {
		t.Fatal(err)
	}
	var st Stats
	full := tableRel(sc, &st, tbl, "P")
	env := &eval.Env{Cols: map[string]value.Value{}, Hosts: map[string]value.Value{}}
	indexScan := func(ords []int) *Relation {
		return okRel(Drain(ctx0, sc, &st, NewIndexScanIter(sc, &st, tbl, full.Cols, ords)))
	}

	for pno := int64(0); pno <= 10; pno++ {
		pred, _ := parser.ParseExpr(fmt.Sprintf("P.PNO = %d", pno))
		want := filterOracle(full, pred, env)
		ords, err := ix.Lookup(value.Row{value.Int(pno)}, sc.Ints)
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
	if want := filterOracle(full, pred, env); !MultisetEqual(want, indexScan(ix.Range(&lo, &hi, sc.Ints))) {
		t.Fatal("index range scan diverges from filter")
	}
	if st.IndexSeeks == 0 {
		t.Error("index seeks not counted")
	}
}

// probedTable builds a stored table R(ID, K, C, V) from rows (K, C, V)
// with an ordered index on (K, C): a non-unique index over NULL-rich,
// duplicate-heavy columns, which no key of the table covers.
func probedTable(t testing.TB, rows []value.Row) (*storage.Table, *storage.OrderedIndex) {
	t.Helper()
	st, err := parser.ParseStatement(`CREATE TABLE R (ID INTEGER, K INTEGER, C INTEGER, V INTEGER, PRIMARY KEY (ID))`)
	if err != nil {
		t.Fatal(err)
	}
	c := catalog.New()
	if _, err := c.DefineFromAST(st.(*ast.CreateTable)); err != nil {
		t.Fatal(err)
	}
	tbl := storage.NewDB(c).MustTable("R")
	ix, err := tbl.CreateOrderedIndex("R_K_C", "K", "C")
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range rows {
		if err := tbl.Insert(append(value.Row{value.Int(int64(i))}, row...)); err != nil {
			t.Fatal(err)
		}
	}
	return tbl, ix
}

// maybeNull draws an integer below n, or NULL one time in four.
func maybeNull(r *rand.Rand, n int) value.Value {
	if r.Intn(4) == 0 {
		return value.Null
	}
	return value.Int(int64(r.Intn(n)))
}

// Property: on seeded random instances the index join is the hash join
// of the same inputs as a multiset, and the first-match probe is that
// hash join projected onto the outer columns and deduplicated (the outer
// rows are distinct, so DISTINCT removes exactly what the join
// multiplied) — in outer order. NULL join keys occur on both sides (the
// index files NULLs together; WHERE equality never matches them), index
// entries repeat, the inner is sometimes empty, a residual predicate
// decides which entry is the first qualifying one, and the key's
// constant suffix is sometimes NULL.
func TestIndexJoinAgreesWithHashJoinProperty(t *testing.T) {
	sc := NewScratch()
	r := rand.New(rand.NewSource(37))
	rCols := []string{"R.ID", "R.K", "R.C", "R.V"}
	for trial := 0; trial < 300; trial++ {
		withBatchSize(t, streamBatchSizes[trial%len(streamBatchSizes)])
		l := &Relation{Cols: []string{"L.K", "L.V"}}
		for i, n := 0, r.Intn(25); i < n; i++ {
			l.Rows = append(l.Rows, value.Row{maybeNull(r, 5), value.Int(int64(i))})
		}
		var inner []value.Row
		for i, n := 0, r.Intn(30)*r.Intn(2); i < n; i++ {
			inner = append(inner, value.Row{maybeNull(r, 5), maybeNull(r, 3), value.Int(int64(r.Intn(10)))})
		}
		tbl, ix := probedTable(t, inner)
		in := IndexProbe{Tbl: tbl, Ix: ix, Cols: rCols, Key: []int{0}}
		filter := ""
		c := value.Null
		if r.Intn(2) == 0 {
			// The key's suffix: R.C = c, c sometimes NULL (never true).
			c = maybeNull(r, 3)
			in.Key = append(in.Key, -1)
			filter = "R.C = " + c.String()
		}
		var residualPred eval.Filter
		if r.Intn(2) == 0 {
			residual := fmt.Sprintf("R.V >= %d", r.Intn(10))
			pred, err := parser.ParseExpr(residual)
			if err != nil {
				t.Fatal(err)
			}
			residualPred = eval.Prepare(pred, rCols, nil).Arm(nil, nil, nil)
			if filter != "" {
				filter += " AND "
			}
			filter += residual
		}
		what := fmt.Sprintf("trial %d (key %v, inner filter %q)\nL=%v\nR=%v", trial, in.Key, filter, l, inner)

		var st Stats
		env := &eval.Env{}
		build := tableRel(sc, &st, tbl, "R")
		if filter != "" {
			pred, err := parser.ParseExpr(filter)
			if err != nil {
				t.Fatal(err)
			}
			build = filterOracle(build, pred, env)
		}
		want := hashJoin(sc, &st, l, build, []string{"L.K"}, []string{"R.K"})

		in.Emit = IdentityEmit(len(l.Cols), len(rCols))
		got := okRel(Drain(ctx0, sc, &st, ixJoinIter(sc, &st, NewRelationIter(sc, &st, l), in, c, residualPred)))
		if !MultisetEqual(want, got) {
			t.Fatalf("%s: index join (%d rows) is not the hash join (%d rows)", what, got.Len(), want.Len())
		}

		wantSemi := hashDistinct(sc, &st, projectOracle(want, l.Cols...))
		in.Semi, in.Emit = true, nil
		gotSemi := okRel(Drain(ctx0, sc, &st, ixJoinIter(sc, &st, NewRelationIter(sc, &st, l), in, c, residualPred)))
		identicalRelations(t, wantSemi, gotSemi, what+": first-match probe vs DISTINCT over the hash join's outer columns")
	}
}

// The index join holds nothing: over an outer input far larger than the
// budget it runs to completion (the hash join of the same inputs, which
// must hold its build side, does not), a row limit below one batch still
// fails it, a cancelled context stops it inside the probe loop without a
// partial batch, a residual predicate's error surfaces, and it counts
// one seek per probing outer row and one scanned row per fetched entry.
func TestIndexJoinLifecycle(t *testing.T) {
	sc := NewScratch()
	withBatchSize(t, 64)
	var inner []value.Row
	for k := 0; k < 500; k++ {
		for c := 0; c < 4; c++ {
			inner = append(inner, value.Row{value.Int(int64(k)), value.Int(int64(c)), value.Int(int64(c))})
		}
	}
	tbl, ix := probedTable(t, inner)
	rCols := []string{"R.ID", "R.K", "R.C", "R.V"}
	l := &Relation{Cols: []string{"L.K", "L.V"}}
	for i := 0; i < 20000; i++ {
		l.Rows = append(l.Rows, value.Row{value.Int(int64(i % 1000)), value.Int(int64(i))})
	}
	residual, err := parser.ParseExpr("R.V >= 2")
	if err != nil {
		t.Fatal(err)
	}
	in := IndexProbe{Tbl: tbl, Ix: ix, Cols: rCols, Key: []int{0}, Emit: IdentityEmit(len(l.Cols), len(rCols))}
	pred := eval.Prepare(residual, rCols, nil).Arm(nil, nil, nil)
	semiIn := in
	semiIn.Semi, semiIn.Emit = true, nil
	semi := func(sc *Scratch, st *Stats) Iterator {
		return ixJoinIter(sc, st, NewRelationIter(sc, st, l), semiIn, value.Null, pred)
	}
	join := func(sc *Scratch, st *Stats) Iterator {
		return ixJoinIter(sc, st, NewRelationIter(sc, st, l), in, value.Null, pred)
	}

	// Counts: half the outer keys exist; each probe of one fetches C = 0,
	// 1 (rejected) and 2 (the first qualifying entry), or all four.
	st := &Stats{}
	if n, err := consume(ctx0, semi(sc, st)); err != nil || n != 10000 {
		t.Fatalf("first-match probe: %d rows, %v; want 10000", n, err)
	}
	if snap := st.Snapshot(); snap.IndexSeeks != 20000 || snap.RowsScanned != 3*10000 || snap.JoinPairs != snap.RowsScanned {
		t.Errorf("first-match probe: seeks=%d scanned=%d pairs=%d, want 20000, 30000, 30000",
			snap.IndexSeeks, snap.RowsScanned, snap.JoinPairs)
	}
	st = &Stats{}
	if n, err := consume(ctx0, join(sc, st)); err != nil || n != 20000 {
		t.Fatalf("index join: %d rows, %v; want 20000", n, err)
	}
	if snap := st.Snapshot(); snap.IndexSeeks != 20000 || snap.RowsScanned != 4*10000 {
		t.Errorf("index join: seeks=%d scanned=%d, want 20000, 40000", snap.IndexSeeks, snap.RowsScanned)
	}

	// Budget: in-flight batches only.
	budget := int64(64 << 10)
	bsc := NewScratch()
	gov := bsc.Budget(0, budget)
	if _, err := consume(ctx0, join(bsc, &Stats{})); err != nil {
		t.Fatalf("index join under a %d-byte budget: %v", budget, err)
	}
	if _, peak := gov.Peak(); peak > budget || peak == 0 {
		t.Errorf("index join peak = %d bytes under a %d-byte budget", peak, budget)
	}
	if rows, bytes := gov.Usage(); rows != 0 || bytes != 0 {
		t.Errorf("index join left %d rows / %d bytes charged after Close", rows, bytes)
	}
	st, bsc = &Stats{}, NewScratch()
	bsc.Budget(0, budget)
	hj := joinIter(bsc, st, NewTableIter(bsc, st, tbl, QualifiedCols(tbl, "R")), NewRelationIter(bsc, st, l), []string{"R.K"}, []string{"L.K"})
	if _, err := consume(ctx0, hj); !errors.Is(err, ErrBudgetExceeded) {
		t.Errorf("hash join building the same outer under the budget: %v, want budget exceeded", err)
	}
	bsc = NewScratch()
	bsc.Budget(10, 0)
	if _, err := consume(ctx0, semi(bsc, &Stats{})); !errors.Is(err, ErrBudgetExceeded) {
		t.Errorf("first-match probe under MaxRows=10: %v, want budget exceeded", err)
	}

	// Cancellation inside the probe loop: no outer key below matches, so
	// the whole outer input is one Next call.
	miss := &Relation{Cols: l.Cols}
	for i := 0; i < 3*cancelEvery; i++ {
		miss.Rows = append(miss.Rows, value.Row{value.Int(-1), value.Int(int64(i))})
	}
	ctx, cancel := context.WithCancel(ctx0)
	st = &Stats{}
	it := ixJoinIter(sc, st, &cancelAfter{Iterator: NewRelationIter(sc, st, miss), cancel: cancel}, in, value.Null, pred)
	if b, err := it.Next(ctx); !errors.Is(err, context.Canceled) || b != nil {
		t.Errorf("cancelled mid-probe: batch of %d, err %v; want nil, context.Canceled", len(b), err)
	}
	if seeks := st.Snapshot().IndexSeeks; seeks >= int64(len(miss.Rows)) {
		t.Errorf("cancelled mid-probe after all %d seeks", seeks)
	}
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}

	// A residual that cannot be evaluated fails the probe, not the build.
	unbound, err := parser.ParseExpr("R.V >= :UNBOUND")
	if err != nil {
		t.Fatal(err)
	}
	bad := eval.Prepare(unbound, rCols, nil).Arm(nil, nil, nil)
	if _, err := consume(ctx0, ixJoinIter(sc, &Stats{}, NewRelationIter(sc, &Stats{}, l), semiIn, value.Null, bad)); err == nil ||
		!strings.Contains(err.Error(), "unbound host variable :UNBOUND") {
		t.Errorf("unbound residual: %v", err)
	}

	// Resolving checks the key against the index and the outer columns,
	// and the join form's layout against both inputs.
	for _, key := range [][]int{nil, {0, 1, 0}, {2}} {
		bad := semiIn
		bad.Key = key
		if err := bad.Resolve(l.Cols); err == nil {
			t.Errorf("key %v resolved", key)
		}
	}
	badEmit := in
	badEmit.Emit = Emit{{Right: true, Ord: 4}}
	if err := badEmit.Resolve(l.Cols); err == nil || !strings.Contains(err.Error(), "#4") {
		t.Errorf("an emit ordinal out of range resolved: %v", err)
	}
}

// cancelAfter cancels its context once its first batch has been pulled.
type cancelAfter struct {
	Iterator
	cancel context.CancelFunc
}

func (c *cancelAfter) Next(ctx context.Context) (Batch, error) {
	b, err := c.Iterator.Next(ctx)
	c.cancel()
	return b, err
}
