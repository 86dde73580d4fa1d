package uniqopt_test

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"uniqopt"
	"uniqopt/internal/engine"
	"uniqopt/internal/plan"
	"uniqopt/internal/sql/parser"
	"uniqopt/internal/value"
	"uniqopt/internal/valuetest"
	"uniqopt/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite the EXPLAIN golden files")

// goldenHosts binds every host variable any paper query or benchmark
// statement mentions.
var goldenHosts = map[string]any{
	"SUPPLIER-NO":   1,
	"SUPPLIER-NAME": "Smith",
	"PART-NO":       1,
	"PARTNO":        1,
	"K":             3,
	"M":             1600,
	"C":             "Toronto",
	"B":             100,
	"C1":            "Ottawa",
	"C2":            "Hull",
	"L":             10,
	"H":             30,
	"N":             7,
	"S":             7,
	"A":             1,
	"P":             3,
}

// goldenDB builds a fresh paper workload DB with a fixed config, so
// every run sees identical data (and therefore identical ANALYZE row
// counts).
func goldenDB(t *testing.T) *uniqopt.DB {
	t.Helper()
	fresh, err := workload.NewDB(workload.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	db := uniqopt.Open()
	for _, ddl := range workload.BenchDDL {
		if err := db.Exec(ddl); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range []string{"SUPPLIER", "PARTS", "AGENTS"} { // parents before FK children
		src := fresh.MustTable(name)
		for i := 0; i < src.Len(); i++ {
			if err := db.InsertRow(name, src.Row(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	return db
}

func paperQueryNames() []string {
	names := make([]string, 0, len(workload.PaperQueries))
	for name := range workload.PaperQueries {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// execSweep is every batch size the identity tests run at: one row,
// three rows and the default (0). The batch size is the executor's one
// setting.
var execSweep = []int{1, 3, 0}

// sweep runs f at every batch size of execSweep, once under each of
// labels, in subtests named label/batch=N. The labels are the worker
// pools and parallel thresholds the sweep also ran under while the
// executor had them. A query now runs on the one goroutine that drains
// it, so the runs at one batch size are the same run; the labels only
// keep every subtest's name.
func sweep(t *testing.T, labels []string, f func(t *testing.T)) {
	t.Helper()
	for _, label := range labels {
		for _, bs := range execSweep {
			t.Run(fmt.Sprintf("%s/batch=%d", label, bs), func(t *testing.T) {
				setStreamBatch(t, bs)
				f(t)
			})
		}
	}
}

// indexedSuffix marks an EXPLAIN case that runs on goldenIndexedDB.
const indexedSuffix = ".indexed"

// explainCaseNames lists every paper example — planned over the golden
// DB, which has no ordered index, so no rule that needs one reaches
// them — and then Examples 8, 9 and 11 again over the DB with the
// benchmark's three indexes, where the first two probe for the first
// match and the third joins through the index.
func explainCaseNames() []string {
	names := paperQueryNames()
	for _, name := range []string{"example11", "example8", "example9"} {
		names = append(names, name+indexedSuffix)
	}
	return names
}

// explainCase returns a fresh DB and the statement for one case of
// explainCaseNames.
func explainCase(t *testing.T, name string) (*uniqopt.DB, string) {
	t.Helper()
	if query, ok := strings.CutSuffix(name, indexedSuffix); ok {
		return goldenIndexedDB(t), workload.PaperQueries[query]
	}
	return goldenDB(t), workload.PaperQueries[name]
}

// explainUnder runs EXPLAIN ANALYZE for one case of explainCaseNames on
// a fresh DB and returns the explanation.
func explainUnder(t *testing.T, name string) *uniqopt.Explanation {
	t.Helper()
	db, sql := explainCase(t, name)
	e, err := db.ExplainWith(context.Background(), sql, goldenHosts, true, true)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return e
}

// TestExplainGolden compares the scrubbed EXPLAIN ANALYZE rendering of
// every paper example against its golden file at every batch size of
// the sweep: the renderings are byte-identical after scrubbing (wall
// times canonicalized, batch counts dropped).
func TestExplainGolden(t *testing.T) {
	for _, name := range explainCaseNames() {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join("testdata", "explain", name+".golden")
			got := plan.ScrubVolatile(explainUnder(t, name).String())
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run `go test -run TestExplainGolden -update ./`): %v", err)
			}
			pools := []string{"workers=1/threshold=1", "workers=1/threshold=1073741824",
				"workers=4/threshold=1", "workers=4/threshold=1073741824"}
			sweep(t, pools, func(t *testing.T) {
				got := plan.ScrubVolatile(explainUnder(t, name).String())
				if string(want) != got {
					t.Errorf("golden mismatch for %s:\n--- want\n%s\n--- got\n%s", name, want, got)
				}
			})
		})
	}
}

// TestExplainAnalyzeCountsMatchStats cross-checks the tree's metrics
// against the engine counters of the same execution: the root's output
// cardinality must equal Stats.RowsOutput, and for plans without
// subqueries or index access the Scan nodes must account for exactly
// Stats.RowsScanned.
func TestExplainAnalyzeCountsMatchStats(t *testing.T) {
	for _, name := range explainCaseNames() {
		t.Run(name, func(t *testing.T) {
			e := explainUnder(t, name)
			if e.Root == nil {
				t.Fatal("no plan tree")
			}
			if e.Root.RowsOut != e.Stats.RowsOutput {
				t.Errorf("root rows_out=%d but Stats.RowsOutput=%d", e.Root.RowsOut, e.Stats.RowsOutput)
			}
			var scanned int64
			indexed := false
			for _, n := range e.Root.AllNodes() {
				if !n.Analyzed {
					t.Errorf("node %s(%s) not analyzed", n.Op, n.Detail)
				}
				switch n.Op {
				case "Scan":
					scanned += n.RowsOut
				case "IndexScan", "IndexJoin":
					indexed = true
				}
			}
			if !indexed && e.Stats.SubqueryRuns == 0 && scanned != e.Stats.RowsScanned {
				t.Errorf("Scan nodes account for %d rows but Stats.RowsScanned=%d", scanned, e.Stats.RowsScanned)
			}
			if e.Stats.SubqueryRuns > 0 && scanned > e.Stats.RowsScanned {
				t.Errorf("Scan nodes (%d rows) exceed Stats.RowsScanned=%d", scanned, e.Stats.RowsScanned)
			}
		})
	}
}

// TestExplainAnalyzeStreamBatches cross-checks the tree's per-operator
// batch counters against the engine's Stats.Batches for the same
// execution: every node that emitted rows must have emitted at least
// one batch, the per-node counts must not exceed the engine total
// (internal iterators — buffered replays, the final drain — may add to
// the engine total but never to a node), and the root must agree with
// Stats.RowsOutput. A plain query of the same statement reports its
// batches too.
func TestExplainAnalyzeStreamBatches(t *testing.T) {
	for _, name := range explainCaseNames() {
		t.Run(name, func(t *testing.T) {
			e := explainUnder(t, name)
			if e.Root == nil {
				t.Fatal("no plan tree")
			}
			if e.Root.RowsOut != e.Stats.RowsOutput {
				t.Errorf("root rows_out=%d but Stats.RowsOutput=%d", e.Root.RowsOut, e.Stats.RowsOutput)
			}
			if e.Stats.Batches == 0 {
				t.Error("execution recorded no batches in Stats")
			}
			var total int64
			for _, n := range e.Root.AllNodes() {
				if !n.Analyzed {
					t.Errorf("node %s(%s) not analyzed", n.Op, n.Detail)
				}
				if n.RowsOut > 0 && n.Batches == 0 {
					t.Errorf("node %s(%s) emitted %d rows in zero batches", n.Op, n.Detail, n.RowsOut)
				}
				total += n.Batches
			}
			if total > e.Stats.Batches {
				t.Errorf("plan nodes account for %d batches but Stats.Batches=%d", total, e.Stats.Batches)
			}
			db, sql := explainCase(t, name)
			rows, err := db.QueryWith(sql, goldenHosts, true)
			if err != nil {
				t.Fatal(err)
			}
			if rows.Stats.Batches != e.Stats.Batches {
				t.Errorf("plain query recorded %d batches, the analyzed one %d", rows.Stats.Batches, e.Stats.Batches)
			}
		})
	}
}

// TestExplainPlanOnlyShape checks that plan-only EXPLAIN renders the
// same tree — operators, details and notes — as a real execution
// without reading any data, and that its trace still names the
// per-table provenance.
func TestExplainPlanOnlyShape(t *testing.T) {
	shape := func(e *uniqopt.Explanation) string {
		var sb strings.Builder
		for _, n := range e.Root.AllNodes() {
			sb.WriteString(n.Op + "(" + n.Detail + ")\n")
			for _, note := range n.Notes {
				sb.WriteString("  -- " + note + "\n")
			}
			if !e.Analyzed && (n.Analyzed || n.RowsIn != 0 || n.RowsOut != 0 || n.TimeNanos != 0 || n.Batches != 0) {
				sb.WriteString("  plan-only node carries execution metrics\n")
			}
		}
		return sb.String()
	}
	for _, name := range explainCaseNames() {
		t.Run(name, func(t *testing.T) {
			db, sql := explainCase(t, name)
			planOnly, err := db.ExplainWith(context.Background(), sql, goldenHosts, true, false)
			if err != nil {
				t.Fatal(err)
			}
			if planOnly.Analyzed {
				t.Error("plan-only explanation marked Analyzed")
			}
			if planOnly.Stats.RowsScanned != 0 {
				t.Errorf("plan-only EXPLAIN read %d base rows", planOnly.Stats.RowsScanned)
			}
			analyzed, err := db.ExplainWith(context.Background(), sql, goldenHosts, true, true)
			if err != nil {
				t.Fatal(err)
			}
			if shape(planOnly) != shape(analyzed) {
				t.Errorf("plan-only and analyzed tree shapes diverge:\n--- plan-only\n%s\n--- analyzed\n%s",
					shape(planOnly), shape(analyzed))
			}
			if len(planOnly.Trace) == 0 {
				t.Error("plan-only explanation carries no provenance trace")
			}
		})
	}
}

// TestPlainQueryBuildsNoPlanTree pins what a plain execution does not
// pay for: it renders no plan tree (Result.Root is nil — no Node, no
// detail string, no clock read per batch), and on the benchmark's
// chain3 shape and on Example 1, over the golden DB with the
// benchmark's three indexes, it allocates no more than the parent
// commit's executors did (159 and 389 allocations per Execute at
// 8221891, 153 and 108 under its streaming option) — in fact about a
// third of the better of the two, which the limits below hold it to.
func TestPlainQueryBuildsNoPlanTree(t *testing.T) {
	db := goldenIndexedDB(t)
	hosts := map[string]value.Value{"N": value.Int(7)}
	for _, c := range []struct {
		name, sql string
		limit     float64
	}{
		{"chain3", `SELECT ALL A.SNO, A.ANO, P.PNO, S.SNAME FROM AGENTS A, PARTS P, SUPPLIER S
			WHERE A.SNO = P.SNO AND P.SNO = S.SNO AND S.SNO = :N`, 60},
		{"example1", workload.PaperQueries["example1"], 60},
	} {
		q, err := parser.ParseQuery(c.sql)
		if err != nil {
			t.Fatal(err)
		}
		p := plan.NewPlanner(db.Store(), plan.Options{ApplyRewrites: true})
		compiled, err := p.Compile(q, &engine.Stats{})
		if err != nil {
			t.Fatal(err)
		}
		vals, err := compiled.Bind(func(name string) (value.Value, bool) {
			v, ok := hosts[name]
			return v, ok
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := p.Execute(context.Background(), plan.NewFrame(), compiled, vals, false)
		if err != nil {
			t.Fatal(err)
		}
		if res.Root != nil {
			t.Errorf("%s: a plain Execute rendered a plan tree", c.name)
		}
		if res.Rel.Len() == 0 || res.Stats.Batches == 0 {
			t.Errorf("%s: %d rows in %d batches", c.name, res.Rel.Len(), res.Stats.Batches)
		}
		analyzed, err := p.Execute(context.Background(), plan.NewFrame(), compiled, vals, true)
		if err != nil {
			t.Fatal(err)
		}
		if analyzed.Root == nil || !valuetest.Same(analyzed.Rel.Cols, analyzed.Rel.Rows, res.Rel.Cols, res.Rel.Rows) {
			t.Errorf("%s: the analyzed execution has no tree, or other rows", c.name)
		}
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := p.Execute(context.Background(), plan.NewFrame(), compiled, vals, false); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > c.limit {
			t.Errorf("%s: %.0f allocations per plain Execute, want at most %.0f", c.name, allocs, c.limit)
		}
		t.Logf("%s: %.0f allocations per plain Execute", c.name, allocs)
	}
}

// TestExplainWithoutValues: a plan-only EXPLAIN of a parameterized
// statement needs no values. It renders the plan any non-NULL binding
// executes — the index join and the range scan, not a plan of their
// own — with each missing parameter spelled as written, and that plan
// is, operator for operator, the one a binding renders. EXPLAIN ANALYZE
// executes, so it refuses the omission as a query does.
func TestExplainWithoutValues(t *testing.T) {
	db := goldenIndexedDB(t)
	const sql = `SELECT ALL S.SNO, S.SNAME, P.PNAME FROM SUPPLIER S, PARTS P
		WHERE S.SNO BETWEEN :L AND :H AND S.SNO = P.SNO AND P.PNO = :PARTNO`
	unbound, err := db.Explain(sql)
	if err != nil {
		t.Fatal(err)
	}
	text := unbound.Root.Format(false)
	for _, want := range []string{
		"IndexJoin(P via PARTS_SNO_PNO = (S.SNO, :PARTNO))",
		"IndexScan(S via SUPPLIER_SNO BETWEEN :L AND :H)",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("plan without values lacks %q:\n%s", want, text)
		}
	}
	bound, err := db.ExplainWith(context.Background(), sql, goldenHosts, true, false)
	if err != nil {
		t.Fatal(err)
	}
	ops := func(root *plan.Node) (out []string) {
		for _, n := range root.AllNodes() {
			out = append(out, n.Op)
		}
		return out
	}
	if got, want := ops(unbound.Root), ops(bound.Root); !reflect.DeepEqual(got, want) {
		t.Errorf("plan without values runs %v, with them %v", got, want)
	}
	if _, err := db.ExplainAnalyze(sql); err == nil || err.Error() != "uniqopt: unbound host variable :L" {
		t.Errorf("EXPLAIN ANALYZE without values: err = %v", err)
	}
}
