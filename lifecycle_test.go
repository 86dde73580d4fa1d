package uniqopt

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"
)

// lifecycleDB builds a DB with enough rows that an unoptimized
// multi-table query runs long enough to observe deadlines.
func lifecycleDB(t testing.TB, rows int) *DB {
	t.Helper()
	return lifecycleDBWith(t, rows, Options{})
}

func lifecycleDBWith(t testing.TB, rows int, opts Options) *DB {
	t.Helper()
	db := OpenWith(opts)
	mustExec := func(ddl string) {
		if err := db.Exec(ddl); err != nil {
			t.Fatal(err)
		}
	}
	mustExec(`CREATE TABLE S (SNO INTEGER NOT NULL, CITY VARCHAR, PRIMARY KEY (SNO))`)
	mustExec(`CREATE TABLE P (PNO INTEGER NOT NULL, SNO INTEGER, COLOR VARCHAR, PRIMARY KEY (PNO))`)
	for i := 0; i < rows; i++ {
		if err := db.Insert("S", i, fmt.Sprintf("city-%d", i%7)); err != nil {
			t.Fatal(err)
		}
		if err := db.Insert("P", i, i%rows, []string{"RED", "BLUE"}[i%2]); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func TestDBQueryContextCancelled(t *testing.T) {
	db := lifecycleDB(t, 100)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rows, err := db.QueryContext(ctx, `SELECT S.SNO FROM S`)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if rows != nil {
		t.Fatal("partial Rows escaped a cancelled query")
	}
}

func TestDBQueryContextDeadline(t *testing.T) {
	db := lifecycleDB(t, 3000)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	start := time.Now()
	// Product of 3000×3000 with a residual non-equijoin predicate: far
	// beyond a 10ms deadline.
	rows, err := db.QueryContext(ctx, `SELECT S.SNO, P.PNO FROM S, P WHERE S.SNO < P.PNO`)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if rows != nil {
		t.Fatal("partial Rows escaped an expired deadline")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("deadline observed only after %v", elapsed)
	}
}

func TestDBMaxRowsBudget(t *testing.T) {
	// 10k rows: enough for single-table scans (2000-row tables), far
	// too little for the ~2M-pair inequality join.
	db := lifecycleDBWith(t, 2000, Options{MaxRows: 10_000})
	rows, err := db.Query(`SELECT S.SNO, P.PNO FROM S, P WHERE S.SNO < P.PNO`)
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
	if rows != nil {
		t.Fatal("partial Rows escaped a blown budget")
	}
	var be *BudgetError
	if !errors.As(err, &be) || be.Resource != "rows" {
		t.Fatalf("err = %v, want a rows *BudgetError", err)
	}
	// A query inside the budget still works: budgets are per query,
	// not per DB.
	if _, err := db.Query(`SELECT S.SNO FROM S WHERE S.SNO = 1`); err != nil {
		t.Fatalf("in-budget query failed after a budget error: %v", err)
	}
}

// TestSubqueryRunsReleaseTheirBudget: a subquery left in a residual
// filter runs once per outer row, and each run gives back what it
// charged when it closes, so the live footprint stays near outer + inner
// rows (about 200 here) however many runs there are (100 × 100 rows
// read). Planned as written or rewritten, NOT EXISTS and NOT IN survive,
// and every outer row qualifies.
func TestSubqueryRunsReleaseTheirBudget(t *testing.T) {
	db := lifecycleDBWith(t, 100, Options{MaxRows: 5000})
	for _, sql := range []string{
		`SELECT S.SNO FROM S WHERE NOT EXISTS (SELECT * FROM P WHERE P.SNO = S.SNO AND P.COLOR = 'GREEN')`,
		`SELECT S.SNO FROM S WHERE S.SNO NOT IN (SELECT P.PNO FROM P WHERE P.SNO <> S.SNO)`,
	} {
		for _, optimize := range []bool{false, true} {
			rows, err := db.QueryWith(sql, nil, optimize)
			if err != nil {
				t.Errorf("optimize=%v: %s: %v", optimize, sql, err)
				continue
			}
			if len(rows.Data) != 100 || rows.Stats.SubqueryRuns != 100 {
				t.Errorf("optimize=%v: %s: %d rows in %d subquery runs, want 100 in 100",
					optimize, sql, len(rows.Data), rows.Stats.SubqueryRuns)
			}
		}
	}
}

func TestDBMemBudget(t *testing.T) {
	db := lifecycleDBWith(t, 2000, Options{MemBudget: 16 * 1024})
	_, err := db.Query(`SELECT S.SNO, P.PNO FROM S, P WHERE S.SNO < P.PNO`)
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
	var be *BudgetError
	if !errors.As(err, &be) || be.Resource != "memory" {
		t.Fatalf("err = %v, want a memory *BudgetError", err)
	}
}

func TestDBGovernorCounters(t *testing.T) {
	db := lifecycleDB(t, 200)
	if _, err := db.Query(`SELECT DISTINCT S.CITY FROM S`); err != nil {
		t.Fatal(err)
	}
	rows, bytes := db.GovernorCounters()
	if rows == 0 || bytes == 0 {
		t.Fatalf("GovernorCounters() = (%d, %d), want both > 0", rows, bytes)
	}
	st := db.EngineCounters()
	if st.RowsMaterialized != rows || st.BytesReserved != bytes {
		t.Fatal("EngineCounters and GovernorCounters disagree")
	}
	if st.RowsScanned == 0 {
		t.Fatal("EngineCounters lost the scan work")
	}
	// Counters accumulate across queries.
	if _, err := db.Query(`SELECT DISTINCT S.CITY FROM S`); err != nil {
		t.Fatal(err)
	}
	if r2, _ := db.GovernorCounters(); r2 <= rows {
		t.Fatalf("counters did not accumulate: %d then %d", rows, r2)
	}
}

func TestDBAnalyzeContext(t *testing.T) {
	db := lifecycleDB(t, 10)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := db.AnalyzeContext(ctx, `SELECT DISTINCT SNO FROM S`); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	a, err := db.AnalyzeContext(context.Background(), `SELECT DISTINCT SNO FROM S`)
	if err != nil {
		t.Fatal(err)
	}
	if !a.DistinctRedundant {
		t.Fatal("AnalyzeContext lost the verdict: DISTINCT on the key should be redundant")
	}
}

func TestErrorReexports(t *testing.T) {
	if !errors.Is(ErrBudgetExceeded, ErrBudgetExceeded) {
		t.Fatal("sentinel identity broken")
	}
	var be *BudgetError
	var ie *InternalError
	_ = be
	_ = ie
}
