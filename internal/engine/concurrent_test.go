package engine

import (
	"fmt"
	"sync"
	"testing"

	"uniqopt/internal/sql/ast"
	"uniqopt/internal/sql/parser"
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

// TestConcurrentExecutor runs the supplier/parts workload from N
// goroutines against one shared Executor and requires byte-identical
// results to a serial pre-computation. Run under -race this pins the
// executor's per-call Stats isolation and the atomic merge into the
// shared total.
func TestConcurrentExecutor(t *testing.T) {
	db, err := workload.NewDB(workload.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	queries := parseWorkload(t)

	// Serial reference results.
	ref := NewExecutor(db, nil)
	want := make([]*Relation, len(queries))
	for i, q := range queries {
		rel, err := ref.Query(q)
		if err != nil {
			t.Fatalf("serial query %d: %v", i, err)
		}
		want[i] = rel
	}
	wantStats := ref.Stats.Snapshot()

	// Shared executor, N goroutines × R rounds.
	shared := NewExecutor(db, nil)
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
					rel, err := shared.Query(q)
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
	got := shared.Stats.Snapshot()
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
	if got != scaled {
		t.Errorf("merged stats drifted:\n got  %s\n want %s", got.String(), scaled.String())
	}
}

// TestConcurrentExecutorsSeparate exercises the more common pattern —
// one executor per goroutine over a shared read-only database.
func TestConcurrentExecutorsSeparate(t *testing.T) {
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

	var wg sync.WaitGroup
	errs := make(chan error, 6)
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ex := NewExecutor(db, nil)
			for i, q := range queries {
				rel, err := ex.Query(q)
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
