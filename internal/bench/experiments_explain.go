package bench

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"uniqopt"
	"uniqopt/internal/workload"
)

// paperDB builds a uniqopt DB populated with the scaled supplier
// workload (parents before FK children).
func paperDB(sc Scale) *uniqopt.DB {
	cfg := workload.DefaultConfig()
	cfg.Suppliers = sc.size(cfg.Suppliers)
	fresh, err := workload.NewDB(cfg)
	if err != nil {
		panic("bench: explain workload: " + err.Error())
	}
	db := uniqopt.Open()
	for _, ddl := range workload.BenchDDL {
		if err := db.Exec(ddl); err != nil {
			panic("bench: explain ddl: " + err.Error())
		}
	}
	for _, name := range []string{"SUPPLIER", "PARTS", "AGENTS"} {
		src := fresh.MustTable(name)
		for i := 0; i < src.Len(); i++ {
			if err := db.InsertRow(name, src.Row(i)); err != nil {
				panic("bench: explain load: " + err.Error())
			}
		}
	}
	return db
}

// explainHosts binds every host variable any paper query mentions;
// unused bindings are ignored.
var explainHosts = map[string]any{
	"SUPPLIER-NO":   1,
	"SUPPLIER-NAME": "Smith",
	"PART-NO":       1,
	"PARTNO":        1,
}

// EExplain — the observability layer over the paper's worked examples.
// Each query is executed twice to warm the verdict cache and the
// metrics registry, then run under EXPLAIN ANALYZE; the table reports
// the plan size, the root cardinality, the analyzer's verdict, and
// whether the explain-time verdict was served from the cache. The
// notes summarize the DB's metrics registry — the same data
// benchrunner's -json flag exports for the CI artifact.
func EExplain(sc Scale) *Table {
	t := &Table{
		ID:    "EX",
		Title: "EXPLAIN ANALYZE plans and verdict provenance over the paper's examples",
		Columns: []string{
			"query", "operators", "rows", "unique", "verdict cache", "explain µs"},
	}
	db := paperDB(sc)
	ctx := context.Background()

	names := make([]string, 0, len(workload.PaperQueries))
	for name := range workload.PaperQueries {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		sql := workload.PaperQueries[name]
		for i := 0; i < 2; i++ {
			if _, err := db.QueryWith(sql, explainHosts, true); err != nil {
				panic("bench: explain warmup " + name + ": " + err.Error())
			}
		}
		start := time.Now()
		e, err := db.ExplainWith(ctx, sql, explainHosts, true, true)
		elapsed := time.Since(start)
		if err != nil {
			panic("bench: explain " + name + ": " + err.Error())
		}
		a, err := db.Analyze(sql)
		if err != nil {
			panic("bench: explain analyze " + name + ": " + err.Error())
		}
		cached := "miss"
		for _, line := range e.Trace {
			if strings.Contains(line, "cache hit") {
				cached = "hit"
			}
		}
		t.AddRow(name, n(int64(len(e.Root.AllNodes()))), n(e.Root.RowsOut),
			yes(a.Unique), cached, us(elapsed.Nanoseconds()))
	}

	m := db.Metrics()
	t.Notes = append(t.Notes,
		fmt.Sprintf("metrics registry: %d query shapes, analyzer cache hit rate %.0f%%, governor rejections %d",
			len(m.Shapes), 100*m.Cache.HitRate, m.Governor.Rejections))
	return t
}
