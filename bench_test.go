// Benchmarks: one testing.B benchmark per experiment in
// EXPERIMENTS.md (E1–E9), each with baseline and optimized
// sub-benchmarks so `go test -bench` output shows the rewrite's
// effect directly, plus micro-benchmarks for the analyzer and parser.
package uniqopt

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"uniqopt/internal/core"
	"uniqopt/internal/engine"
	"uniqopt/internal/ims"
	"uniqopt/internal/oodb"
	"uniqopt/internal/plan"
	"uniqopt/internal/sql/parser"
	"uniqopt/internal/storage"
	"uniqopt/internal/value"
	"uniqopt/internal/workload"
)

func benchDB(b *testing.B, suppliers, fanout int, red float64) *storage.DB {
	b.Helper()
	cfg := workload.DefaultConfig()
	cfg.Suppliers = suppliers
	cfg.PartsPerSupplier = fanout
	cfg.RedFraction = red
	db, err := workload.NewDB(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return db
}

// runBench executes src under both planner configurations as
// sub-benchmarks.
func runBench(b *testing.B, db *storage.DB, src string, hosts map[string]value.Value) {
	b.Helper()
	q, err := parser.ParseQuery(src)
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []struct {
		name string
		opts plan.Options
	}{
		{"baseline", plan.Options{}},
		{"optimized", plan.Options{ApplyRewrites: true}},
	} {
		b.Run(mode.name, func(b *testing.B) {
			p := plan.NewPlanner(db, mode.opts)
			lookup := func(name string) (value.Value, bool) {
				v, ok := hosts[name]
				return v, ok
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := p.Run(q, lookup); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// E1 — Table: redundant DISTINCT elimination (Example 1).
func BenchmarkE1DistinctElimination(b *testing.B) {
	db := benchDB(b, 2000, 10, 0.3)
	runBench(b, db, workload.PaperQueries["example1"], nil)
}

// E2 — Table: correlated EXISTS → join (Example 7).
func BenchmarkE2SubqueryToJoin(b *testing.B) {
	db := benchDB(b, 800, 10, 0.3)
	hosts := map[string]value.Value{
		"SUPPLIER-NAME": value.String_("Smith"),
		"PART-NO":       value.Int(3),
	}
	runBench(b, db, workload.PaperQueries["example7"], hosts)
}

// E3 — Table: EXISTS with many matches → DISTINCT join (Example 8).
func BenchmarkE3SubqueryToDistinctJoin(b *testing.B) {
	db := benchDB(b, 800, 8, 0.4)
	runBench(b, db, workload.PaperQueries["example8"], nil)
}

// The subqueries no rewrite removes, over E2's data: Example 7 with its
// EXISTS negated, and as a NOT IN. Both plans run the subquery once per
// outer row; the optimized one differs only in what the analysis costs.
func BenchmarkSurvivingSubquery(b *testing.B) {
	db := benchDB(b, 800, 10, 0.3)
	hosts := map[string]value.Value{
		"SUPPLIER-NAME": value.String_("Smith"),
		"PART-NO":       value.Int(3),
	}
	for _, c := range []struct{ name, src string }{
		{"not-exists", `SELECT ALL S.SNO, S.SNAME FROM SUPPLIER S WHERE S.SNAME = :SUPPLIER-NAME AND
			NOT EXISTS (SELECT * FROM PARTS P WHERE S.SNO = P.SNO AND P.PNO = :PART-NO)`},
		{"not-in", `SELECT ALL S.SNO, S.SNAME FROM SUPPLIER S WHERE S.SNAME = :SUPPLIER-NAME AND
			S.SNO NOT IN (SELECT P.SNO FROM PARTS P WHERE P.PNO = :PART-NO)`},
	} {
		b.Run(c.name, func(b *testing.B) { runBench(b, db, c.src, hosts) })
	}
}

// E4 — Table: INTERSECT → EXISTS (Example 9).
func BenchmarkE4IntersectToExists(b *testing.B) {
	db := benchDB(b, 2000, 4, 0.3)
	runBench(b, db, workload.PaperQueries["example9"], nil)
}

// E5 — Table: IMS DL/I call halving (Example 10).
func BenchmarkE5IMSJoinVsSubquery(b *testing.B) {
	rel := benchDB(b, 1000, 8, 0.3)
	hdb, err := ims.FromRelational(rel)
	if err != nil {
		b.Fatal(err)
	}
	target := value.Int(3)
	b.Run("join", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res := hdb.JoinStrategy("PNO", target)
			if len(res.Output) == 0 {
				b.Fatal("empty result")
			}
		}
	})
	b.Run("nested", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res := hdb.NestedStrategy("PNO", target)
			if len(res.Output) == 0 {
				b.Fatal("empty result")
			}
		}
	})
}

// E6 — Table: OODB object fetches (Example 11), selective range.
func BenchmarkE6OODBJoinVsSubquery(b *testing.B) {
	rel := benchDB(b, 2000, 5, 0.3)
	store, err := oodb.FromRelational(rel)
	if err != nil {
		b.Fatal(err)
	}
	lo, hi := value.Int(100), value.Int(200)
	b.Run("childDriven", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := store.ChildDrivenJoin(value.Int(2), lo, hi); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("parentDriven", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := store.ParentDrivenExists(value.Int(2), lo, hi); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// E7 — Table: Algorithm 1 cost vs the exact Theorem-1 check.
func BenchmarkE7AlgorithmCost(b *testing.B) {
	cat := workload.PaperCatalog()
	an := core.NewAnalyzer(cat)
	s, err := parser.ParseSelect(workload.PaperQueries["example1"])
	if err != nil {
		b.Fatal(err)
	}
	b.Run("algorithm1", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := an.AnalyzeSelect(s, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	// The exact check on a deliberately small single-table query (the
	// two-table paper query exceeds any reasonable enumeration cap).
	exactSrc := "SELECT S.SNO, S.SNAME FROM SUPPLIER S"
	es, err := parser.ParseSelect(exactSrc)
	if err != nil {
		b.Fatal(err)
	}
	d, err := core.DefaultDomains(cat, es)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("exact", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := an.ExactUniqueness(es, d, 50_000_000); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// E8 — Table: soundness corpus (Algorithm 1 + exact cross-check) as a
// throughput measure for the verification harness.
func BenchmarkE8SoundnessCheck(b *testing.B) {
	for i := 0; i < b.N; i++ {
		// One corpus pass of 20 random queries.
		benchSoundnessPass(b)
	}
}

func benchSoundnessPass(b *testing.B) {
	b.Helper()
	cat := workload.PaperCatalog()
	an := core.NewAnalyzer(cat)
	for i := 0; i < 20; i++ {
		src := fmt.Sprintf("SELECT S.SNO FROM SUPPLIER S WHERE S.SNO = %d", i)
		s, err := parser.ParseSelect(src)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := an.AnalyzeSelect(s, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// Micro-benchmarks.

func BenchmarkParser(b *testing.B) {
	src := workload.PaperQueries["example7"]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := parser.ParseQuery(src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDistinct dedups PARTS projected on an integer column (SNO)
// and on a string one (PNAME): the sort and the hash table compare and
// hash whole rows, so the string leg is where the width of a cell and
// the way a string is read out of it show.
func BenchmarkDistinct(b *testing.B) {
	tbl := benchDB(b, 2000, 10, 0.3).MustTable("PARTS")
	ctx := context.Background()
	cols := engine.QualifiedCols(tbl, "P")
	for _, key := range []struct{ name, col string }{{"int", "P.SNO"}, {"string", "P.PNAME"}} {
		var st engine.Stats
		idx, err := engine.ColIndexes(cols, []string{key.col})
		if err != nil {
			b.Fatal(err)
		}
		plan := &engine.Projection{Cols: []string{key.col}, Idx: idx}
		if err := plan.Resolve(cols); err != nil {
			b.Fatal(err)
		}
		sc := engine.NewScratch()
		proj, err := engine.Drain(ctx, sc, &st, engine.NewProjectIter(sc, &st, engine.NewTableIter(sc, &st, tbl, cols), plan))
		if err != nil {
			b.Fatal(err)
		}
		for _, op := range []struct {
			name     string
			distinct func(*engine.Scratch, *engine.Stats, engine.Iterator) engine.Iterator
		}{{"sort", engine.NewDistinctSortIter}, {"hash", engine.NewDistinctHashIter}} {
			b.Run(key.name+"/"+op.name, func(b *testing.B) {
				b.ReportAllocs()
				run := engine.NewScratch()
				for i := 0; i < b.N; i++ {
					var s engine.Stats
					if _, err := engine.Drain(ctx, run, &s, op.distinct(run, &s, engine.NewRelationIter(run, &s, proj))); err != nil {
						b.Fatal(err)
					}
					run.Reset()
				}
			})
		}
	}
}

// benchRows is the PARTS table's rows: five cells each, integers and
// strings mixed, as the sort and hash operators meet them.
func benchRows(b *testing.B) []value.Row {
	b.Helper()
	return benchDB(b, 200, 10, 0.3).MustTable("PARTS").Rows()
}

var benchSink uint64

// BenchmarkOrderCompareRows is one lexicographic comparison of two
// stored rows — what a sort does n log n times: adjacent rows, which
// part within the first two integer cells, and a row against its copy,
// which reads all five cells, two of them strings.
func BenchmarkOrderCompareRows(b *testing.B) {
	rows := benchRows(b)
	adjacent, equal := make([]value.Row, len(rows)), make([]value.Row, len(rows))
	for i, r := range rows {
		adjacent[i], equal[i] = rows[(i+1)%len(rows)], r.Clone()
	}
	for _, leg := range []struct {
		name   string
		others []value.Row
	}{{"adjacent", adjacent}, {"equal", equal}} {
		b.Run(leg.name, func(b *testing.B) {
			b.ReportAllocs()
			sum, j := 0, 0
			for i := 0; i < b.N; i++ {
				sum += value.OrderCompareRows(rows[j], leg.others[j])
				if j++; j == len(rows) {
					j = 0
				}
			}
			benchSink += uint64(sum)
		})
	}
}

// BenchmarkHashRow is one hash of a stored row — what a hash table does
// once per row built and once per row probed.
func BenchmarkHashRow(b *testing.B) {
	rows := benchRows(b)
	b.ReportAllocs()
	b.ResetTimer()
	sum, j := uint64(0), 0
	for i := 0; i < b.N; i++ {
		sum += value.HashRow(rows[j])
		if j++; j == len(rows) {
			j = 0
		}
	}
	benchSink += sum
}

// E9 — Table: join elimination via inclusion dependencies.
func BenchmarkE9JoinElimination(b *testing.B) {
	db := benchDB(b, 2000, 10, 0.3)
	runBench(b, db, `SELECT P.PNO, P.PNAME FROM SUPPLIER S, PARTS P
		WHERE S.SNO = P.SNO AND P.COLOR = 'RED'`, nil)
}

// stmtBenchDB is the paper schema through the public API with a
// hundred suppliers: enough for the statement-cache benchmarks below,
// whose work is the compile path and a key probe.
func stmtBenchDB(b *testing.B) *DB {
	b.Helper()
	db := Open()
	for _, ddl := range workload.BenchDDL {
		if err := db.Exec(ddl); err != nil {
			b.Fatal(err)
		}
	}
	for sno := 1; sno <= 100; sno++ {
		if err := db.Insert("SUPPLIER", sno, fmt.Sprintf("name-%d", sno), "Toronto", sno*10, "Active"); err != nil {
			b.Fatal(err)
		}
	}
	return db
}

// The two spellings of one point query: by host variable (literal-free,
// so a repeat is served by its text) and by literal (lexed every time,
// then served by its shape).
const (
	benchPointHost    = `SELECT S.SNO, S.SNAME, S.BUDGET FROM SUPPLIER S WHERE S.SNO = :N AND S.STATUS = :ST`
	benchPointLiteral = `SELECT S.SNO, S.SNAME, S.BUDGET FROM SUPPLIER S WHERE S.SNO = 7 AND S.STATUS = 'Active'`
)

var benchPointCases = []struct {
	name, sql string
	hosts     map[string]any
}{
	{"text", benchPointHost, map[string]any{"N": 7, "ST": "Active"}},
	{"lifted", benchPointLiteral, nil},
}

// BenchmarkCompileHit is a statement-cache hit alone, text to bound
// call: text reaches the entry by the text itself, lifted by way of the
// lexer and the shape.
func BenchmarkCompileHit(b *testing.B) {
	db := stmtBenchDB(b)
	for _, c := range benchPointCases {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := db.compile(c.sql, c.hosts, true, false); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPointQuery runs the same two statements end to end: the
// host-variable query against the same query with literals.
func BenchmarkPointQuery(b *testing.B) {
	db := stmtBenchDB(b)
	for _, c := range benchPointCases {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rows, err := db.QueryWithContext(context.Background(), c.sql, c.hosts, true)
				if err != nil || len(rows.Data) != 1 {
					b.Fatalf("%v, %v", rows, err)
				}
			}
		})
	}
}

// BenchmarkExecInsertHost is durable_ingest's statement on the
// in-memory backend: one host-variable INSERT per row, ascending keys.
func BenchmarkExecInsertHost(b *testing.B) {
	db := stmtBenchDB(b)
	hosts := map[string]any{"SNO": 7, "ANAME": "agent", "ACITY": "Ottawa"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		hosts["ANO"] = i
		if _, err := db.ExecWith(`INSERT INTO AGENTS VALUES (:SNO, :ANO, :ANAME, :ACITY)`, hosts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompileCold is the compile path with every cache empty: a
// fresh database per iteration, built outside the timer. corpus
// compiles the first 1,200 distinct texts of the exact checks'
// generator over SmallDDL (:H bound, so every text reaches the
// compiler); paper compiles the eleven paper examples and then renders
// each as a plan-only EXPLAIN.
func BenchmarkCompileCold(b *testing.B) {
	b.Run("corpus", func(b *testing.B) {
		r := rand.New(rand.NewSource(1))
		seen := map[string]bool{}
		var texts []string
		for len(texts) < 1200 {
			var src string
			if r.Intn(2) == 0 {
				src = workload.RandomBlock(r)
			} else {
				src = workload.RandomCorrelated(r)
			}
			if !seen[src] {
				seen[src] = true
				texts = append(texts, src)
			}
		}
		hosts := map[string]any{"H": 1}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			db := Open()
			for _, ddl := range workload.SmallDDL {
				if err := db.Exec(ddl); err != nil {
					b.Fatal(err)
				}
			}
			b.StartTimer()
			for _, src := range texts {
				if _, err := db.compile(src, hosts, true, false); err != nil {
					b.Fatalf("%s: %v", src, err)
				}
			}
		}
	})
	b.Run("paper", func(b *testing.B) {
		names := make([]string, 0, len(workload.PaperQueries))
		for name := range workload.PaperQueries {
			names = append(names, name)
		}
		sort.Strings(names)
		hosts := map[string]any{"SUPPLIER-NO": 1, "SUPPLIER-NAME": "Smith", "PART-NO": 1, "PARTNO": 1}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			db := paperDB(b)
			b.StartTimer()
			for _, name := range names {
				if _, err := db.compile(workload.PaperQueries[name], hosts, true, false); err != nil {
					b.Fatalf("%s: %v", name, err)
				}
			}
			for _, name := range names {
				if _, err := db.ExplainWith(context.Background(), workload.PaperQueries[name], hosts, true, false); err != nil {
					b.Fatalf("%s: %v", name, err)
				}
			}
		}
	})
}
