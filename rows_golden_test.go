package uniqopt_test

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"uniqopt"
	"uniqopt/internal/plan"
	"uniqopt/internal/sql/parser"
	"uniqopt/internal/value"
	"uniqopt/internal/workload"
)

// Row-order goldens: the columns and rows, in emitted order, of every
// paper example and of the seven embedded_adhoc statement shapes (with
// fixed literals), optimized and as written. They were generated at
// commit 8221891 — when a materializing executor still existed to
// generate them — and pin "byte-identical to the parent": the
// benchmark oracle is order-insensitive and the EXPLAIN goldens pin
// counts, not order. The three embedded_analytic shapes the index-probe
// rules reach (probedAnalytic, under goldenHosts) were added with those
// rules: their optimized rows are in outer order, since no sort runs.
// The layout cases (layoutCases) were generated at commit 0d7e4a2, the
// parent of the change that made every join emit only the columns read
// above it: they are the shapes whose rows that change could have
// altered. layout_chain was generated at commit 78e3440, the parent of
// the change that left the planner one join order. Regenerating them (`go test -run TestRowGoldens
// -update .`) is only legitimate in a change that means to alter row
// order.

// fixedAdhoc are the benchmark's embedded_adhoc statements with their
// drawn literals fixed to values that select part of the golden data.
var fixedAdhoc = map[string]string{
	"ex1_lit": `SELECT DISTINCT S.SNO, P.PNO, P.PNAME FROM SUPPLIER S, PARTS P
		WHERE S.SNO = P.SNO AND P.COLOR = 'RED' AND P.OEM-PNO < 1500`,
	"ex2_lit": `SELECT DISTINCT S.SNAME, P.PNO, P.PNAME FROM SUPPLIER S, PARTS P
		WHERE S.SNO = P.SNO AND P.COLOR = 'RED' AND P.OEM-PNO < 1500`,
	"ex4_lit": `SELECT DISTINCT S.SNO, SNAME, P.PNO, PNAME FROM SUPPLIER S, PARTS P
		WHERE P.SNO = 7 AND S.SNO = P.SNO AND P.OEM-PNO > 1063`,
	"ex7_lit": `SELECT ALL S.SNO, S.SNAME FROM SUPPLIER S
		WHERE S.SNAME = 'Smith' AND S.BUDGET < 800 AND
		EXISTS (SELECT * FROM PARTS P WHERE S.SNO = P.SNO AND P.PNO = 3)`,
	"ex9_lit": `SELECT ALL S.SNO FROM SUPPLIER S WHERE S.SCITY = 'Toronto' AND S.BUDGET > 100
		INTERSECT
		SELECT ALL A.SNO FROM AGENTS A WHERE A.ACITY = 'Ottawa' OR A.ACITY = 'Hull'`,
	"disj_lit": `SELECT DISTINCT S.SNO, P.PNO FROM SUPPLIER S, PARTS P
		WHERE S.SNO = P.SNO AND (P.COLOR = 'RED' AND P.OEM-PNO < 1300 OR P.PNO = 2 AND P.OEM-PNO > 1700)`,
	"chain3_lit": `SELECT ALL A.SNO, A.ANO, P.PNO, S.SNAME FROM AGENTS A, PARTS P, SUPPLIER S
		WHERE A.SNO = P.SNO AND P.SNO = S.SNO AND S.SNO = 7 AND P.OEM-PNO <> 1065`,
}

// probedAnalytic are the embedded_analytic statements planned as index
// probes: two first-match probes and one index join.
var probedAnalytic = []string{"ex8_exists", "ex9_intersect", "range_join"}

// benchIndexes are the three ordered indexes the benchmark deploys.
var benchIndexes = []struct {
	table, name string
	cols        []string
}{
	{"SUPPLIER", "SUPPLIER_SNO", []string{"SNO"}},
	{"PARTS", "PARTS_SNO_PNO", []string{"SNO", "PNO"}},
	{"AGENTS", "AGENTS_SNO_ANO", []string{"SNO", "ANO"}},
}

// goldenIndexedDB is goldenDB with the benchmark's indexes.
func goldenIndexedDB(t *testing.T) *uniqopt.DB {
	t.Helper()
	db := goldenDB(t)
	for _, ix := range benchIndexes {
		if err := db.CreateIndex(ix.table, ix.name, ix.cols...); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// rowCase is one statement with a row golden.
type rowCase struct {
	name, sql string
	indexed   bool // runs on goldenIndexedDB
	// unbound names a host variable of goldenHosts the run leaves out;
	// the golden is then the error the statement fails with.
	unbound string
}

// layoutCases are the shapes a join's emit map decides the layout of: a
// column projected twice, a cross-table residual predicate read between
// the join and the projection, a residual subquery (its block emits its
// live columns, the correlation references among them), a reordered three-table chain with no constant-bound
// key (a non-top join's layout, roles never flipped), and an index join
// whose key constant is left unbound, which is refused before it runs.
var layoutCases = []rowCase{
	{name: "layout_repeat", sql: `SELECT ALL S.SNO, S.SNO, P.PNO, S.SNO FROM SUPPLIER S, PARTS P
		WHERE S.SNO = P.SNO AND P.COLOR = 'RED' AND P.PNO >= :K`},
	{name: "layout_residual", sql: `SELECT ALL S.SNAME, P.PNAME FROM SUPPLIER S, PARTS P
		WHERE S.SNO = P.SNO AND S.BUDGET < P.PNO`},
	{name: "layout_subquery", sql: `SELECT ALL P.PNO, S.SNAME FROM SUPPLIER S, PARTS P
		WHERE S.SNO = P.SNO AND S.BUDGET > 500 AND
		EXISTS (SELECT * FROM AGENTS A WHERE A.SNO = S.SNO AND A.ANO = P.PNO)`},
	{name: "layout_chain", indexed: true, sql: `SELECT ALL A.SNO, A.ANO, P.PNO, S.SNAME
		FROM AGENTS A, PARTS P, SUPPLIER S
		WHERE A.SNO = P.SNO AND P.SNO = S.SNO AND P.OEM-PNO <> 1065 AND S.SCITY = 'Toronto'`},
	{name: "layout_fallback", indexed: true, unbound: "PARTNO", sql: `SELECT ALL S.SNO, S.SNAME, P.PNAME
		FROM SUPPLIER S, PARTS P
		WHERE S.SNO BETWEEN :L AND :H AND S.SNO = P.SNO AND P.PNO = :PARTNO`},
}

// run executes the case on db — the plain or the indexed golden database,
// as the case says — with or without the rewrites.
func (c rowCase) run(db *uniqopt.DB, optimize bool) (*uniqopt.Rows, error) {
	hosts := goldenHosts
	if c.unbound != "" {
		hosts = map[string]any{}
		for k, v := range goldenHosts {
			if k != c.unbound {
				hosts[k] = v
			}
		}
	}
	return db.QueryWith(c.sql, hosts, optimize)
}

// runPlanner runs sql on db's store under planner options no
// uniqopt.Options field reaches.
func runPlanner(db *uniqopt.DB, sql string, hosts map[string]any, opts plan.Options) (*uniqopt.Rows, error) {
	q, err := parser.ParseQuery(sql)
	if err != nil {
		return nil, err
	}
	bound := map[string]value.Value{}
	for k, v := range hosts {
		if bound[k], err = uniqopt.Convert(v); err != nil {
			return nil, err
		}
	}
	res, err := plan.NewPlanner(db.Store(), opts).Run(q, func(name string) (value.Value, bool) {
		v, ok := bound[name]
		return v, ok
	})
	if err != nil {
		return nil, err
	}
	out := &uniqopt.Rows{Columns: res.Rel.Cols, Stats: res.Stats}
	for _, row := range res.Rel.Rows {
		cells := make([]any, len(row))
		for i, v := range row {
			switch v.Kind() {
			case value.KindInt:
				cells[i] = v.AsInt()
			case value.KindString:
				cells[i] = v.AsString()
			case value.KindBool:
				cells[i] = v.AsBool()
			}
		}
		out.Data = append(out.Data, cells)
	}
	return out, nil
}

// rowCases lists the paper examples, the adhoc shapes, then the probed
// analytic shapes, each group sorted by name.
func rowCases() []rowCase {
	var out []rowCase
	for _, name := range paperQueryNames() {
		out = append(out, rowCase{name: name, sql: workload.PaperQueries[name]})
	}
	adhoc := make([]string, 0, len(fixedAdhoc))
	for name := range fixedAdhoc {
		adhoc = append(adhoc, name)
	}
	sort.Strings(adhoc)
	for _, name := range adhoc {
		out = append(out, rowCase{name: name, sql: fixedAdhoc[name], indexed: true})
	}
	for _, name := range probedAnalytic {
		out = append(out, rowCase{name: name, sql: benchStatement(name).sql, indexed: true})
	}
	return append(out, layoutCases...)
}

// renderRows is the golden format: the column names, then one line per
// row in emitted order, tab-separated, NULL spelled out; or, for a run
// that failed, its error.
func renderRows(rows *uniqopt.Rows, err error) string {
	if err != nil {
		return "error: " + err.Error() + "\n"
	}
	var sb strings.Builder
	sb.WriteString(strings.Join(rows.Columns, "\t"))
	sb.WriteByte('\n')
	for _, row := range rows.Data {
		for i, v := range row {
			if i > 0 {
				sb.WriteByte('\t')
			}
			if v == nil {
				sb.WriteString("NULL")
			} else {
				fmt.Fprint(&sb, v)
			}
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

func rowGoldenPath(name string, optimize bool) string {
	kind := "base"
	if optimize {
		kind = "opt"
	}
	return filepath.Join("testdata", "rows", name+"."+kind+".golden")
}

// checkRowGoldens runs every row case on plain (and, for the adhoc
// shapes, indexed) — optimized and as written — and compares columns,
// rows and row order with the goldens.
func checkRowGoldens(t *testing.T, plain, indexed *uniqopt.DB) {
	t.Helper()
	for _, c := range rowCases() {
		db := plain
		if c.indexed {
			db = indexed
		}
		for _, optimize := range []bool{true, false} {
			rows, err := c.run(db, optimize)
			if err != nil && c.unbound == "" {
				t.Errorf("%s optimize=%v: %v", c.name, optimize, err)
				continue
			}
			got, path := renderRows(rows, err), rowGoldenPath(c.name, optimize)
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				continue
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing row golden: %v", err)
			}
			if string(want) != got {
				t.Errorf("%s optimize=%v: rows or row order differ from %s (%d vs %d bytes)",
					c.name, optimize, path, len(got), len(want))
			}
		}
	}
}

// TestRowGoldens holds the default batch size to the goldens; the
// batch-size sweep is TestStreamingPaperExamples.
func TestRowGoldens(t *testing.T) {
	checkRowGoldens(t, goldenDB(t), goldenIndexedDB(t))
}

// TestRowGoldensMatchSortBaseline holds every row golden, as a multiset,
// to the same statement run with the paper's sort-based DISTINCT
// (plan.Options.SortDistinct). The goldens of the statements whose
// DISTINCT the analysis keeps (example2, ex2_lit) were regenerated when
// hashing became the one duplicate-elimination operator: this pins
// that their rows moved and nothing else did.
func TestRowGoldensMatchSortBaseline(t *testing.T) {
	// multiset renders a golden with its rows sorted, the header first.
	multiset := func(golden string) string {
		lines := strings.Split(strings.TrimSuffix(golden, "\n"), "\n")
		sort.Strings(lines[1:])
		return strings.Join(lines, "\n")
	}
	plain, indexed := goldenDB(t), goldenIndexedDB(t)
	for _, c := range rowCases() {
		if c.unbound != "" {
			continue // the golden holds its error
		}
		db := plain
		if c.indexed {
			db = indexed
		}
		for _, optimize := range []bool{true, false} {
			rows, err := runPlanner(db, c.sql, goldenHosts,
				plan.Options{ApplyRewrites: optimize, SortDistinct: true})
			if err != nil {
				t.Fatalf("%s optimize=%v: %v", c.name, optimize, err)
			}
			want, err := os.ReadFile(rowGoldenPath(c.name, optimize))
			if err != nil {
				t.Fatalf("missing row golden: %v", err)
			}
			if multiset(renderRows(rows, nil)) != multiset(string(want)) {
				t.Errorf("%s optimize=%v: the golden's rows are not the sort baseline's", c.name, optimize)
			}
		}
	}
}
