package engine

import (
	"fmt"
	"sync"
	"testing"

	"uniqopt/internal/oracle"
	"uniqopt/internal/sql/ast"
	"uniqopt/internal/sql/parser"
	"uniqopt/internal/storage"
	"uniqopt/internal/workload"
)

// supplierWorkload is a cross-section of the paper's supplier/parts
// queries: projections, DISTINCT, multi-table products with join
// predicates, correlated EXISTS, IN-subqueries, and set operations.
var supplierWorkload = []string{
	`SELECT DISTINCT SNO FROM SUPPLIER`,
	`SELECT DISTINCT S.SNO, S.SNAME FROM SUPPLIER S WHERE S.SCITY = 'Chicago'`,
	`SELECT DISTINCT P.PNO, P.COLOR FROM SUPPLIER S, PARTS P
	   WHERE S.SNO = P.SNO AND P.COLOR = 'RED'`,
	`SELECT S.SNAME FROM SUPPLIER S
	   WHERE EXISTS (SELECT P.PNO FROM PARTS P WHERE P.SNO = S.SNO AND P.COLOR = 'RED')`,
	`SELECT DISTINCT S.SNO FROM SUPPLIER S
	   WHERE S.SNO IN (SELECT A.SNO FROM AGENTS A)`,
	`SELECT S.SNO FROM SUPPLIER S WHERE S.SCITY = 'Toronto'
	   INTERSECT
	 SELECT A.SNO FROM AGENTS A`,
	`SELECT S.SNO FROM SUPPLIER S
	   EXCEPT
	 SELECT P.SNO FROM PARTS P WHERE P.COLOR = 'BLUE'`,
}

// serialAnswers runs every query once on its pipeline, on this
// goroutine, requires each answer to be the oracle's, and returns the
// answers and the work they counted together.
func serialAnswers(t *testing.T, db *storage.DB, queries []ast.Query) ([]*Relation, Stats) {
	t.Helper()
	var total Stats
	want := make([]*Relation, len(queries))
	for i, q := range queries {
		st := &Stats{}
		rel, err := runQuery(ctx0, db, q, nil, st)
		if err != nil {
			t.Fatalf("serial query %d: %v", i, err)
		}
		cols, rows, err := oracle.Query(db, q, nil)
		if err != nil {
			t.Fatalf("oracle on query %d: %v", i, err)
		}
		if !MultisetEqual(&Relation{Cols: cols, Rows: rows}, rel) {
			t.Fatalf("query %d: the pipeline's answer is not the oracle's", i)
		}
		want[i] = rel
		total.Add(*st)
	}
	return want, total
}

func parseWorkload(t *testing.T) []ast.Query {
	t.Helper()
	qs := make([]ast.Query, len(supplierWorkload))
	for i, src := range supplierWorkload {
		q, err := parser.ParseQuery(src)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		qs[i] = q
	}
	return qs
}

// TestConcurrentExecutor runs the supplier/parts workload's pipelines
// from N goroutines over one database, merging each run's Stats into
// one shared total, and requires the results of a serial
// pre-computation. Run under -race this pins that concurrent pipelines
// share no mutable state and that the merge into the shared total is
// atomic.
func TestConcurrentExecutor(t *testing.T) {
	db, err := workload.NewDB(workload.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	queries := parseWorkload(t)

	want, wantStats := serialAnswers(t, db, queries)

	// One shared total, N goroutines × R rounds.
	shared := &Stats{}
	const goroutines = 8
	const rounds = 3
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				for i, q := range queries {
					st := &Stats{}
					rel, err := runQuery(ctx0, db, q, nil, st)
					shared.Add(*st)
					if err != nil {
						errs <- fmt.Errorf("goroutine %d query %d: %w", g, i, err)
						return
					}
					if len(rel.Rows) != len(want[i].Rows) {
						errs <- fmt.Errorf("goroutine %d query %d: %d rows, want %d",
							g, i, len(rel.Rows), len(want[i].Rows))
						return
					}
					if !MultisetEqual(rel, want[i]) {
						errs <- fmt.Errorf("goroutine %d query %d: result differs", g, i)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// The shared Stats must hold exactly goroutines×rounds times the
	// serial work — merged atomically, nothing lost or doubled.
	got := shared.Snapshot()
	scale := int64(goroutines * rounds)
	scaled := wantStats
	scaled.RowsScanned *= scale
	scaled.RowsOutput *= scale
	scaled.Comparisons *= scale
	scaled.SortRuns *= scale
	scaled.RowsSorted *= scale
	scaled.HashProbes *= scale
	scaled.HashInserts *= scale
	scaled.JoinPairs *= scale
	scaled.SubqueryRuns *= scale
	scaled.IndexSeeks *= scale
	scaled.RowsMaterialized *= scale
	scaled.BytesReserved *= scale
	scaled.Batches *= scale
	if got != scaled {
		t.Errorf("merged stats drifted:\n got  %s\n want %s", got.String(), scaled.String())
	}
}

// TestConcurrentExecutorsSeparate exercises the more common pattern —
// each goroutine counting into Stats of its own over a shared read-only
// database.
func TestConcurrentExecutorsSeparate(t *testing.T) {
	db, err := workload.NewDB(workload.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	queries := parseWorkload(t)

	want, _ := serialAnswers(t, db, queries)

	var wg sync.WaitGroup
	errs := make(chan error, 6)
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			st := &Stats{}
			for i, q := range queries {
				rel, err := runQuery(ctx0, db, q, nil, st)
				if err != nil {
					errs <- err
					return
				}
				if !MultisetEqual(rel, want[i]) {
					errs <- fmt.Errorf("goroutine %d query %d differs", g, i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
