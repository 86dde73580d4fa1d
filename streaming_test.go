package uniqopt_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"uniqopt"
	"uniqopt/internal/engine"
	"uniqopt/internal/plan"
	"uniqopt/internal/sql/parser"
	"uniqopt/internal/value"
	"uniqopt/internal/workload"
)

// setStreamBatch scopes the engine batch size to one test (0 keeps
// the default).
func setStreamBatch(t *testing.T, n int) {
	t.Helper()
	if n == 0 {
		return
	}
	prev := engine.SetBatchSize(n)
	t.Cleanup(func() { engine.SetBatchSize(prev) })
}

// referenceRows evaluates sql with the oracle, under the golden host
// bindings.
func referenceRows(t *testing.T, db *uniqopt.DB, sql string) *engine.Relation {
	t.Helper()
	q, err := parser.ParseQuery(sql)
	if err != nil {
		t.Fatal(err)
	}
	hosts := map[string]value.Value{}
	for k, v := range goldenHosts {
		if hosts[k], err = uniqopt.Convert(v); err != nil {
			t.Fatal(err)
		}
	}
	return reference(t, db, q, hosts)
}

// asRelation is a query result as the engine relation it came from.
func asRelation(t *testing.T, rows *uniqopt.Rows) *engine.Relation {
	t.Helper()
	rel := &engine.Relation{Cols: rows.Columns}
	for _, row := range rows.Data {
		r := make(value.Row, len(row))
		for i, v := range row {
			var err error
			if r[i], err = uniqopt.Convert(v); err != nil {
				t.Fatal(err)
			}
		}
		rel.Rows = append(rel.Rows, r)
	}
	return rel
}

// TestStreamingPaperExamples holds the one executor, at every batch size
// of the sweep, to two oracles neither of which is itself: the row
// goldens (columns, rows and row order, byte for byte — every paper
// example and every embedded_adhoc shape, optimized and as written),
// and the oracle (multiset). Batching is execution strategy, never a
// semantics change.
func TestStreamingPaperExamples(t *testing.T) {
	// The oracle does not batch, so its answers are computed once. It
	// evaluates a FROM list as nested loops over the full Cartesian
	// product, which for the three-table chains chain3_lit
	// and layout_chain is 20M rows: those cases have the goldens as their
	// only oracle.
	reference := map[string]*engine.Relation{}
	for _, c := range rowCases() {
		if c.name == "chain3_lit" || c.name == "layout_chain" || c.unbound != "" {
			continue
		}
		db := goldenDB(t)
		if c.indexed {
			db = goldenIndexedDB(t)
		}
		reference[c.name] = referenceRows(t, db, c.sql)
	}
	sweep(t, []string{"serial", "parallel", "workers=1/threshold=1", "workers=4/threshold=1073741824"}, func(t *testing.T) {
		plain, indexed := goldenDB(t), goldenIndexedDB(t)
		checkRowGoldens(t, plain, indexed)
		for _, c := range rowCases() {
			db := plain
			if c.indexed {
				db = indexed
			}
			for _, optimize := range []bool{true, false} {
				got, err := c.run(db, optimize)
				if c.unbound != "" {
					continue // the golden holds its error
				}
				if err != nil {
					t.Fatalf("%s optimize=%v: %v", c.name, optimize, err)
				}
				if want := reference[c.name]; want != nil && !engine.MultisetEqual(want, asRelation(t, got)) {
					t.Errorf("%s optimize=%v: differs from the oracle (%d vs %d rows)",
						c.name, optimize, len(got.Data), want.Len())
				}
				if got.Stats.Batches == 0 {
					t.Errorf("%s optimize=%v: execution recorded no batches", c.name, optimize)
				}
			}
		}
	})
}

// streamBudgetDB builds a DB where the outer table is far larger than
// the memory budget the tests impose but the interesting results are
// small: S carries `rows` rows, P only 50.
func streamBudgetDB(t *testing.T, rows int, opts uniqopt.Options) *uniqopt.DB {
	t.Helper()
	db := uniqopt.OpenWith(opts)
	for _, ddl := range []string{
		`CREATE TABLE S (SNO INTEGER NOT NULL, CITY VARCHAR, PRIMARY KEY (SNO))`,
		`CREATE TABLE P (PNO INTEGER NOT NULL, SNO INTEGER, PRIMARY KEY (PNO))`,
	} {
		if err := db.Exec(ddl); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < rows; i++ {
		if err := db.Insert("S", i, fmt.Sprintf("city-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 50; i++ {
		if err := db.Insert("P", i, i); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// TestStreamingBudget pins what MemBudget bounds: the pipeline's live
// footprint — blocking state, in-flight batches, the result — not the
// sum of every operator's output. A join whose outer scan alone is many
// times the budget completes, because only the (tiny) build side, the
// in-flight batches and the one result row are ever resident. A blocking
// operator over the same oversized input still fails fast.
func TestStreamingBudget(t *testing.T) {
	const rows = 40_000
	// Enough for a few in-flight batches (~82KB each at the default
	// batch size: 24 + 2×24 + ~10 bytes a row), far below the ~3.3MB of
	// the S table.
	const budget = 256 * 1024
	join := `SELECT S.SNO, S.CITY FROM S, P WHERE S.SNO = P.SNO AND P.PNO = 7`

	db := streamBudgetDB(t, rows, uniqopt.Options{MemBudget: budget})
	res, err := db.Query(join)
	if err != nil {
		t.Fatalf("join under budget: %v", err)
	}
	if len(res.Data) != 1 || res.Data[0][0] != int64(7) {
		t.Fatalf("join result = %v, want the single row for SNO 7", res.Data)
	}
	if res.Stats.Batches == 0 {
		t.Fatal("join recorded no batches")
	}

	// Blocking state is still charged as it accrues: a hash-distinct
	// over 40k unique rows cannot fit the budget and must fail fast,
	// not stream partial results — and so must a result that is itself
	// larger than the budget.
	for name, q := range map[string]func() (*uniqopt.Rows, error){
		"blocking distinct": func() (*uniqopt.Rows, error) {
			return db.QueryBaseline(`SELECT DISTINCT S.CITY FROM S`)
		},
		"oversized result": func() (*uniqopt.Rows, error) { return db.Query(`SELECT S.SNO, S.CITY FROM S`) },
	} {
		rows2, err := q()
		if !errors.Is(err, uniqopt.ErrBudgetExceeded) {
			t.Fatalf("%s: err = %v, want ErrBudgetExceeded", name, err)
		}
		if rows2 != nil {
			t.Fatalf("%s: partial Rows escaped a blown budget", name)
		}
		var be *uniqopt.BudgetError
		if !errors.As(err, &be) || be.Resource != "memory" {
			t.Fatalf("%s: err = %v, want a memory *BudgetError", name, err)
		}
	}
}

// planOps lists the operators of sql's plan under db's options.
func planOps(t *testing.T, db *uniqopt.DB, sql string, optimize bool) []string {
	t.Helper()
	e, err := db.ExplainWith(context.Background(), sql, goldenHosts, optimize, false)
	if err != nil {
		t.Fatal(err)
	}
	var ops []string
	for _, n := range e.Root.AllNodes() {
		ops = append(ops, n.Op)
	}
	return ops
}

// TestStreamingDistinctShortCircuit checks the zero-cost DISTINCT
// path: when the uniqueness analysis proves DISTINCT redundant, the
// rewrite removes the node before planning, so the pipeline is built
// without any duplicate-elimination stage at all — no hash table, no
// sort buffer, nothing to short-circuit at run time.
func TestStreamingDistinctShortCircuit(t *testing.T) {
	db := goldenDB(t)
	sql := workload.PaperQueries["example1"]

	opt, err := db.QueryWith(sql, goldenHosts, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(opt.Rewrites) == 0 {
		t.Fatal("example1 applied no rewrites")
	}
	for _, op := range planOps(t, db, sql, true) {
		if strings.Contains(op, "Distinct") {
			t.Errorf("optimized plan still carries a distinct stage: %q", op)
		}
	}

	base, err := db.QueryWith(sql, goldenHosts, false)
	if err != nil {
		t.Fatal(err)
	}
	if ops := planOps(t, db, sql, false); ops[0] != "DistinctHash" {
		t.Fatalf("baseline plan lost its DistinctHash stage: %v", ops)
	}
	// Same rows either way (the rewrite is semantics-preserving, and
	// the paper data has no duplicates for DISTINCT to remove); order
	// may differ, so compare canonicalized renderings.
	if canonRows(base.Data) != canonRows(opt.Data) {
		t.Fatalf("baseline and optimized results diverge:\nbaseline %d rows vs optimized %d rows",
			len(base.Data), len(opt.Data))
	}
}

// canonRows renders rows order-independently for multiset comparison.
func canonRows(data [][]any) string {
	lines := make([]string, len(data))
	for i, row := range data {
		lines[i] = fmt.Sprint(row)
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// TestInPlaceScanFilterIdentity extends the identity sweep to the
// in-place scan filter: a pushed-down predicate on a full scan is
// evaluated over windows of the table's own row slice, and must return
// the same rows in the same order at every batch size, render the same
// EXPLAIN ANALYZE tree (Scan out=N, Filter in=N out=k), count the same
// rows scanned — and charge the governor for less than the table. The
// streaming=false legs hold the result to the oracle, which does not
// batch; the streaming=true legs to the first leg's rows.
func TestInPlaceScanFilterIdentity(t *testing.T) {
	// COLOR and PNO are not leading index columns: Scan + Filter.
	const sql = `SELECT ALL P.SNO, P.PNO, P.PNAME FROM PARTS P WHERE P.COLOR = 'RED' AND P.PNO > :PART-NO`
	ref, err := goldenDB(t).QueryWith(sql, goldenHosts, true)
	if err != nil {
		t.Fatal(err)
	}
	tableRows := ref.Stats.RowsScanned
	if len(ref.Data) == 0 || int64(len(ref.Data)) >= tableRows {
		t.Fatalf("filter kept %d of %d rows; the test needs a selective predicate", len(ref.Data), tableRows)
	}
	if ref.Stats.RowsMaterialized >= tableRows {
		t.Errorf("the run charged %d rows for a %d-row table: the scan was copied",
			ref.Stats.RowsMaterialized, tableRows)
	}
	var refTree string
	for _, streaming := range []bool{false, true} {
		var labels []string
		for _, pool := range []string{"serial", "parallel", "narrow", "wide"} {
			labels = append(labels, fmt.Sprintf("%s/streaming=%v", pool, streaming))
		}
		sweep(t, labels, func(t *testing.T) {
			db := goldenDB(t)
			if !streaming {
				got := referenceRows(t, db, sql)
				if !engine.MultisetEqual(got, asRelation(t, ref)) {
					t.Errorf("result differs from the oracle (%d vs %d rows)", len(ref.Data), got.Len())
				}
				return
			}
			got, err := db.QueryWith(sql, goldenHosts, true)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(ref.Columns, got.Columns) || !reflect.DeepEqual(ref.Data, got.Data) {
				t.Errorf("result diverges from the first run (%d vs %d rows)",
					len(got.Data), len(ref.Data))
			}
			if got.Stats.RowsScanned != tableRows {
				t.Errorf("rows scanned = %d, want %d", got.Stats.RowsScanned, tableRows)
			}
			e, err := db.ExplainWith(context.Background(), sql, goldenHosts, true, true)
			if err != nil {
				t.Fatal(err)
			}
			tree := plan.ScrubVolatile(e.String())
			if refTree == "" {
				refTree = tree
				for _, want := range []string{
					fmt.Sprintf("Scan(PARTS as P) [in=%d out=%d time=?]", tableRows, tableRows),
					fmt.Sprintf("[in=%d out=%d time=?]\n    Scan(", tableRows, len(ref.Data)),
				} {
					if !strings.Contains(tree, want) {
						t.Errorf("EXPLAIN ANALYZE lacks %q:\n%s", want, tree)
					}
				}
			} else if tree != refTree {
				t.Errorf("EXPLAIN ANALYZE diverges:\n--- first leg\n%s\n--- this leg\n%s", refTree, tree)
			}
		})
	}
}

// TestConcurrentQueriesEachOwnAScratch: queries running at once on one
// DB and on a View of it each execute on a scratch of their own — two
// sharing one would write each other's cells — and an answer kept by the
// caller is still what it was after every later query has reset and
// reused the scratch it came from.
func TestConcurrentQueriesEachOwnAScratch(t *testing.T) {
	db := goldenDB(t)
	handles := []*uniqopt.DB{db, db.View(uniqopt.Options{})}
	names := paperQueryNames()
	want := map[string]string{}
	kept := map[string][][]any{}
	for _, name := range names {
		rows, err := db.QueryWith(workload.PaperQueries[name], goldenHosts, true)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want[name], kept[name] = fmt.Sprint(rows.Data), rows.Data
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := handles[w%len(handles)]
			for round := 0; round < 25; round++ {
				name := names[(w+round)%len(names)]
				rows, err := h.QueryWith(workload.PaperQueries[name], goldenHosts, true)
				if err != nil {
					t.Errorf("worker %d, %s: %v", w, name, err)
					return
				}
				if got := fmt.Sprint(rows.Data); got != want[name] {
					t.Errorf("worker %d, %s: the answer differs from the serial one", w, name)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, name := range names {
		if fmt.Sprint(kept[name]) != want[name] {
			t.Errorf("%s: the answer changed after later queries reused its scratch", name)
		}
	}
}

// TestInterleavedPipelinesShareNothing: two goroutines alternate
// statements of different pipelines on one DB — a hash join into a
// DISTINCT, an index join, a sort-merge INTERSECT, a surviving NOT
// EXISTS run per outer row, an OR filter's row loop — so that each
// execution carves its iterators, governor and result from a frame the
// previous one, of another pipeline, handed back. Every answer, column
// list and Stats must be what a fresh DB answers for the same warm
// statement.
func TestInterleavedPipelinesShareNothing(t *testing.T) {
	hosts := map[string]any{"L": 10, "H": 30, "PARTNO": 1}
	stmts := []struct {
		sql      string
		optimize bool
	}{
		{fixedAdhoc["ex2_lit"], true},
		{`SELECT ALL S.SNO, S.SNAME, S.SCITY, S.BUDGET, S.STATUS FROM SUPPLIER S, PARTS P
			WHERE S.SNO BETWEEN :L AND :H AND S.SNO = P.SNO AND P.PNO = :PARTNO`, true},
		{fixedAdhoc["ex9_lit"], false},
		{`SELECT ALL S.SNO, S.SNAME FROM SUPPLIER S
			WHERE NOT EXISTS (SELECT * FROM PARTS P WHERE P.SNO = S.SNO AND P.COLOR = 'RED')`, true},
		{fixedAdhoc["disj_lit"], true},
	}
	type answer struct {
		cols, data string
		stats      engine.Stats
	}
	run := func(db *uniqopt.DB, i int) (answer, error) {
		rows, err := db.QueryWith(stmts[i].sql, hosts, stmts[i].optimize)
		if err != nil {
			return answer{}, err
		}
		return answer{fmt.Sprint(rows.Columns), fmt.Sprint(rows.Data), rows.Stats}, nil
	}
	want := make([]answer, len(stmts))
	for i := range stmts {
		fresh := goldenIndexedDB(t)
		for k := 0; k < 2; k++ { // the second run is a warm one, like every run below
			a, err := run(fresh, i)
			if err != nil {
				t.Fatalf("statement %d: %v", i, err)
			}
			want[i] = a
		}
	}
	db := goldenIndexedDB(t)
	for i := range stmts {
		if _, err := run(db, i); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round < 20; round++ {
				i := (w + round) % len(stmts)
				got, err := run(db, i)
				if err != nil {
					t.Errorf("worker %d, statement %d: %v", w, i, err)
					return
				}
				if got != want[i] {
					t.Errorf("worker %d, statement %d: got %+v, a fresh DB answers %+v", w, i, got, want[i])
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
