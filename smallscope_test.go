package uniqopt_test

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"uniqopt"
	"uniqopt/internal/catalog"
	"uniqopt/internal/core"
	"uniqopt/internal/engine"
	"uniqopt/internal/oracle"
	"uniqopt/internal/sql/ast"
	"uniqopt/internal/sql/parser"
	"uniqopt/internal/value"
	"uniqopt/internal/workload"
)

// smallScopeCases are the queries the small-scope property rewrites: for
// each rule, queries it must rewrite and queries next to them it must
// leave alone — a NOT IN beside the IN, a nullable foreign key beside
// the NOT NULL one, a nullable UNIQUE beside the primary key, NULLs on
// both sides of a set operation — over workload.SmallDDL.
var smallScopeCases = []string{
	// eliminate-distinct: a projected key, a key bound through a key FD,
	// an IS NULL on a nullable UNIQUE, a CHECK-pinned key column, and a
	// host-variable binding.
	`SELECT DISTINCT R.K, R.X FROM R R`,
	`SELECT DISTINCT R.K, S.Z FROM R R, S S WHERE R.X = S.K`,
	`SELECT DISTINCT U.X FROM U U WHERE U.K IS NULL`,
	`SELECT DISTINCT U.X FROM U U WHERE U.K IS NOT NULL`,
	`SELECT DISTINCT CN.K, CN.W FROM CN CN`,
	`SELECT DISTINCT CV.W FROM CV CV`,
	`SELECT DISTINCT CK.Z FROM CK CK WHERE CK.A = :H AND CK.B = 1`,
	// A constant on the left of a comparison: the filter kernel reads it
	// the other way round (2 > R.X is R.X < 2).
	`SELECT DISTINCT R.K, R.X FROM R R WHERE 2 > R.X`,
	// subquery-to-join (Theorem 2) and subquery-to-distinct-join
	// (Corollary 1).
	`SELECT R.K, R.X FROM R R WHERE EXISTS (SELECT * FROM S S WHERE S.K = R.X)`,
	`SELECT R.K, R.X FROM R R WHERE NOT EXISTS (SELECT * FROM S S WHERE S.K = R.X)`,
	`SELECT R.K FROM R R WHERE EXISTS (SELECT * FROM U U WHERE U.K = R.X)`,
	`SELECT R.K FROM R R WHERE EXISTS (SELECT * FROM U U WHERE U.K IS NULL AND U.X = R.X)`,
	`SELECT R.K FROM R R WHERE EXISTS (SELECT * FROM CV CV WHERE CV.W = R.X)`,
	`SELECT R.X FROM R R WHERE EXISTS (SELECT * FROM CK CK WHERE CK.A = R.K AND CK.B = R.Y)`,
	`SELECT DISTINCT R.X FROM R R WHERE EXISTS (SELECT * FROM S S WHERE S.Z = R.X)`,
	`SELECT R.X FROM R R WHERE EXISTS (SELECT * FROM S S WHERE S.Z = R.X)`,
	`SELECT R.K, R.Y FROM R R WHERE EXISTS (SELECT * FROM S S WHERE S.Z = R.X)`,
	// join-to-subquery (Section 6).
	`SELECT R.K, R.X FROM R R, S S WHERE R.X = S.K`,
	`SELECT R.K FROM R R, S S WHERE R.X = S.Z`,
	// join-elimination: a NOT NULL foreign key, and a nullable one.
	`SELECT F.K, F.RK FROM F F, S S WHERE F.SK = S.K`,
	`SELECT F.K FROM F F, R R WHERE F.RK = R.K`,
	// in-to-exists, and NOT IN, which it must refuse.
	`SELECT R.K FROM R R WHERE R.X IN (SELECT S.Z FROM S S)`,
	`SELECT R.K FROM R R WHERE R.X NOT IN (SELECT S.Z FROM S S)`,
	// Theorem 3, Corollary 2 and the EXCEPT forms, over nullable columns.
	`SELECT R.X FROM R R INTERSECT SELECT S.Z FROM S S`,
	`SELECT R.K, R.X FROM R R INTERSECT SELECT S.K, S.Z FROM S S`,
	`SELECT S.Z FROM S S INTERSECT SELECT U.K FROM U U`,
	`SELECT U.K FROM U U EXCEPT SELECT S.Z FROM S S`,
	`SELECT R.K, R.X FROM R R EXCEPT SELECT S.K, S.Z FROM S S`,
	`SELECT R.K FROM R R INTERSECT ALL SELECT S.Z FROM S S`,
	`SELECT R.X FROM R R INTERSECT ALL SELECT S.K FROM S S`,
	`SELECT R.X FROM R R EXCEPT SELECT S.Z FROM S S`,
	`SELECT R.K FROM R R EXCEPT ALL SELECT S.Z FROM S S`,
	`SELECT R.X FROM R R EXCEPT ALL SELECT S.K FROM S S`,
	`SELECT U.K FROM U U EXCEPT ALL SELECT S.Z FROM S S`,
	// Subqueries that run once per outer row, as written at least: a
	// two-level correlation whose innermost block reads the outermost
	// table, a join inside EXISTS, DISTINCT inside EXISTS, a
	// non-equality correlation, EXISTS under OR, and IN with a
	// correlated inner filter.
	`SELECT R.K FROM R R WHERE EXISTS (SELECT * FROM S S WHERE S.Z = R.X AND
		NOT EXISTS (SELECT * FROM S S2 WHERE S2.K = S.Z AND S2.Z = R.Y))`,
	`SELECT R.K FROM R R WHERE NOT EXISTS (SELECT * FROM S S, U U WHERE S.K = U.X AND U.K = R.X)`,
	`SELECT R.K FROM R R WHERE NOT EXISTS (SELECT DISTINCT S.Z FROM S S WHERE S.Z = R.X)`,
	`SELECT R.K, R.X FROM R R WHERE EXISTS (SELECT * FROM S S WHERE S.Z > R.X)`,
	`SELECT R.K FROM R R WHERE R.Y = 1 OR EXISTS (SELECT * FROM S S WHERE S.K = R.X)`,
	`SELECT R.K FROM R R WHERE R.X IN (SELECT S.Z FROM S S WHERE S.K <> R.K)`,
	`SELECT R.K FROM R R WHERE R.X NOT IN (SELECT S.Z FROM S S WHERE S.K <> R.Y)`,
}

// smallScopeCap bounds the instances × host assignments one case runs,
// as the combination cap bounds the exact checks; a case over it is
// counted, not failed.
const smallScopeCap = 5_000

// Property (small-scope equivalence): for every rewrite the optimizer
// suggests for a case, the query and its rewrite return the same bag
// under the oracle on every instance of at most two rows
// per table, and so does the product DB, planned rewritten and as
// written — as written, every subquery survives, so each EXISTS and IN
// case runs its block on the product's iterators once per outer row. The rows of each table are the
// exact checks' candidate rows (core.Domains.TableRows over the query's
// default domains) with the columns no query reads fixed; each instance
// is inserted through storage, which refuses those that break a key, a
// CHECK or a foreign key. Every rule must rewrite some case, and on some
// instance with a non-empty answer.
func TestRewritesAgreeOnSmallInstances(t *testing.T) {
	db := uniqopt.Open()
	for _, ddl := range workload.SmallDDL {
		if err := db.Exec(ddl); err != nil {
			t.Fatal(err)
		}
	}
	cat := db.Store().Catalog()
	type tally struct{ cases, instances, answered int }
	rules := map[string]*tally{}
	for _, r := range []core.Rule{core.RuleEliminateDistinct, core.RuleSubqueryToJoin,
		core.RuleSubqueryToDistinct, core.RuleJoinToSubquery, core.RuleIntersectToExists,
		core.RuleIntersectAllToExists, core.RuleExceptToNotExists, core.RuleExceptAllToNotExists,
		core.RuleInToExists, core.RuleJoinElimination} {
		rules[string(r)] = &tally{}
	}
	// Generated cases: DISTINCT blocks, and correlated EXISTS queries
	// with and without DISTINCT, from the exact checks' generator.
	cases := slices.Clone(smallScopeCases)
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 30; i++ {
		cases = append(cases, "SELECT DISTINCT "+strings.TrimPrefix(workload.RandomBlock(r), "SELECT "))
		src := workload.RandomCorrelated(r)
		if i%2 == 0 {
			src = "SELECT DISTINCT " + strings.TrimPrefix(src, "SELECT ")
		}
		cases = append(cases, src)
	}
	over := 0
	for _, src := range cases {
		q, err := parser.ParseQuery(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		infos, err := db.Suggest(src)
		if err != nil {
			t.Fatalf("suggest %q: %v", src, err)
		}
		rewrites := make([]ast.Query, len(infos))
		for i, in := range infos {
			if rewrites[i], err = parser.ParseQuery(in.After); err != nil {
				t.Fatalf("%s: rewrite %q does not parse: %v", in.Rule, in.After, err)
			}
		}
		inst, err := smallInstances(cat, q, rewrites)
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		if inst.runs() > smallScopeCap {
			over++
			t.Logf("over the cap (%d runs): %s", inst.runs(), src)
			continue
		}
		answered := make([]bool, len(infos))
		checked := 0
		inst.each(func(rows map[string][]value.Row) {
			if !loadInstance(db, cat, rows) {
				return
			}
			checked++
			for _, hosts := range inst.hosts {
				want := reference(t, db, q, hosts)
				for i, rw := range rewrites {
					if got := reference(t, db, rw, hosts); !engine.MultisetEqual(want, got) {
						t.Fatalf("%s rewrites %s\n  to %s\nwhich differs\n%s\nwant %v\ngot  %v",
							infos[i].Rule, src, infos[i].After, describe(rows, hosts), want, got)
					}
					answered[i] = answered[i] || want.Len() > 0
				}
				args := map[string]any{}
				for h, v := range hosts {
					args[h] = v
				}
				for _, optimize := range []bool{true, false} {
					got, err := db.QueryWith(src, args, optimize)
					if err != nil {
						t.Fatalf("%s: product (optimize=%v): %v", src, optimize, err)
					}
					if !engine.MultisetEqual(want, asRelation(t, got)) {
						t.Fatalf("%s: the product DB (optimize=%v) differs from the oracle\n%s\nwant %v\ngot  %v",
							src, optimize, describe(rows, hosts), want, got.Data)
					}
				}
			}
		})
		for i, in := range infos {
			tl := rules[in.Rule]
			tl.cases++
			tl.instances += checked
			if answered[i] {
				tl.answered++
			}
		}
	}
	names := make([]string, 0, len(rules))
	for r := range rules {
		names = append(names, r)
	}
	sort.Strings(names)
	for _, r := range names {
		tl := rules[r]
		t.Logf("%-26s %d cases, %d instances", r, tl.cases, tl.instances)
		if tl.answered == 0 {
			t.Errorf("%s rewrote no case on an instance with a non-empty answer", r)
		}
	}
	t.Logf("%d cases over the cap of %d runs", over, smallScopeCap)
}

// loadInstance replaces every table's rows with the instance's, and
// reports false when the instance breaks a key, a CHECK or a foreign
// key, which storage refuses.
func loadInstance(db *uniqopt.DB, cat *catalog.Catalog, rows map[string][]value.Row) bool {
	for _, tab := range cat.DefinedTables() {
		db.Store().MustTable(tab.Name).Truncate()
	}
	for _, tab := range cat.DefinedTables() {
		for _, row := range rows[tab.Name] {
			if db.InsertRow(tab.Name, row) != nil {
				return false
			}
		}
	}
	return true
}

// indexJoinResidualCases are plans with an index join whose residual —
// what a fetched row must still satisfy — reads a nullable column. On an
// instance where it is NULL the residual is Unknown, and the fetched row
// drops under the false-interpreted WHERE: it is no match.
var indexJoinResidualCases = []string{
	// Rule B: NK contributes no output column, so it is probed last,
	// first match, through NK_A.
	`SELECT DISTINCT R.K FROM R R, NK NK WHERE NK.A = R.X AND NK.B = 1`,
	// Rule A: R is read through R_K, and S probed per R row through S_K.
	`SELECT R.K, S.Z FROM R R, S S WHERE R.K = :H AND R.X = S.K AND S.Z = 1`,
}

// TestIndexJoinResidualOnSmallInstances: over SmallDDL with ordered
// indexes, each index-join case returns the oracle's bag on every
// instance of at most two rows per table.
func TestIndexJoinResidualOnSmallInstances(t *testing.T) {
	db := uniqopt.Open()
	for _, ddl := range workload.SmallDDL {
		if err := db.Exec(ddl); err != nil {
			t.Fatal(err)
		}
	}
	for _, ix := range [][]string{{"R", "R_K", "K"}, {"S", "S_K", "K"}, {"NK", "NK_A", "A"}} {
		if err := db.CreateIndex(ix[0], ix[1], ix[2]); err != nil {
			t.Fatal(err)
		}
	}
	cat := db.Store().Catalog()
	for _, src := range indexJoinResidualCases {
		ex, err := db.Explain(src)
		if err != nil {
			t.Fatal(err)
		}
		if plan := ex.String(); !strings.Contains(plan, "IndexJoin(") || !strings.Contains(plan, " where ") {
			t.Fatalf("%s: no index join with a residual:\n%s", src, plan)
		}
		q, err := parser.ParseQuery(src)
		if err != nil {
			t.Fatal(err)
		}
		inst, err := smallInstances(cat, q, nil)
		if err != nil {
			t.Fatal(err)
		}
		answered := 0
		inst.each(func(rows map[string][]value.Row) {
			if !loadInstance(db, cat, rows) {
				return
			}
			for _, hosts := range inst.hosts {
				want := reference(t, db, q, hosts)
				args := map[string]any{}
				for h, v := range hosts {
					args[h] = v
				}
				got, err := db.QueryWith(src, args, true)
				if err != nil {
					t.Fatalf("%s: %v", src, err)
				}
				if !engine.MultisetEqual(want, asRelation(t, got)) {
					t.Fatalf("%s differs from the oracle\n%s\nwant %v\ngot  %v", src, describe(rows, hosts), want, got.Data)
				}
				if want.Len() > 0 {
					answered++
				}
			}
		})
		if answered == 0 {
			t.Errorf("%s: no instance with a non-empty answer", src)
		}
	}
}

// reference evaluates q with the oracle, the definitional evaluator
// that shares no code with the planner or the engine.
func reference(t *testing.T, db *uniqopt.DB, q ast.Query, hosts map[string]value.Value) *engine.Relation {
	t.Helper()
	cols, rows, err := oracle.Query(db.Store(), q, hosts)
	if err != nil {
		t.Fatalf("oracle on %s: %v", q.SQL(), err)
	}
	return &engine.Relation{Cols: cols, Rows: rows}
}

func describe(rows map[string][]value.Row, hosts map[string]value.Value) string {
	var b strings.Builder
	names := make([]string, 0, len(rows))
	for n := range rows {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&b, "  %s: %v\n", n, rows[n])
	}
	fmt.Fprintf(&b, "  hosts: %v", hosts)
	return b.String()
}

// instances are the small instances of one case: for each table, every
// set of at most two of its rows (a keyless table may hold a row twice),
// and the host assignments.
type instances struct {
	tables  []string
	choices [][][]value.Row
	hosts   []map[string]value.Value
}

func (in *instances) runs() int {
	n := len(in.hosts)
	for _, c := range in.choices {
		n *= len(c)
	}
	return n
}

// each calls f with every instance, table name → rows.
func (in *instances) each(f func(map[string][]value.Row)) {
	rows := map[string][]value.Row{}
	var walk func(i int)
	walk = func(i int) {
		if i == len(in.tables) {
			f(rows)
			return
		}
		for _, c := range in.choices[i] {
			rows[in.tables[i]] = c
			walk(i + 1)
		}
	}
	walk(0)
}

// smallInstances builds the instances for q and its rewrites: the tables
// they name and the tables those reference, each with the candidate rows
// of every correlation name it goes by in q, keeping one row per
// combination of the columns some query reads or a key or foreign key
// holds.
func smallInstances(cat *catalog.Catalog, q ast.Query, rewrites []ast.Query) (*instances, error) {
	d, err := core.DefaultDomains(cat, q)
	if err != nil {
		return nil, err
	}
	read := map[string]bool{} // column names any query reads
	mark := func(e ast.Expr) bool {
		if c, ok := e.(*ast.ColumnRef); ok {
			read[strings.ToUpper(c.Column)] = true
		}
		return true
	}
	corrs := map[string][]string{}
	for _, query := range append([]ast.Query{q}, rewrites...) {
		for _, b := range blocks(query) {
			for _, it := range b.Items {
				ast.WalkExpr(it.Expr, mark)
			}
			ast.WalkExpr(b.Where, mark)
		}
	}
	for _, b := range blocks(q) {
		for _, tr := range b.From {
			name := strings.ToUpper(tr.Table)
			if corr := strings.ToUpper(tr.Name()); !slices.Contains(corrs[name], corr) {
				corrs[name] = append(corrs[name], corr)
			}
		}
	}
	in := &instances{}
	// A table is defined after the tables it references: in reverse
	// definition order, every referenced table is reached.
	defined := cat.DefinedTables()
	for i := len(defined) - 1; i >= 0; i-- {
		tab := defined[i]
		if corrs[tab.Name] == nil {
			continue
		}
		for _, fk := range tab.ForeignKeys {
			if ref := strings.ToUpper(fk.RefTable); corrs[ref] == nil {
				corrs[ref] = []string{ref}
				addDefaults(d, ref, cat)
			}
		}
	}
	for _, tab := range cat.DefinedTables() {
		if corrs[tab.Name] == nil {
			continue
		}
		keep := make([]int, 0, len(tab.Columns))
		for i, c := range tab.Columns {
			if read[c.Name] || inKeyOrForeignKey(tab, i) {
				keep = append(keep, i)
			}
		}
		var rows []value.Row
		for _, corr := range corrs[tab.Name] {
			cand, err := d.TableRows(corr, tab, smallScopeCap)
			if err != nil {
				return nil, err
			}
			for _, r := range cand {
				if !slices.ContainsFunc(rows, func(o value.Row) bool { return value.NullEqCols(o, keep, r, keep) }) {
					rows = append(rows, r)
				}
			}
		}
		choices := [][]value.Row{nil}
		for i := range rows {
			for j := i; j < len(rows); j++ {
				if j == i {
					choices = append(choices, rows[i:i+1])
					if len(tab.Keys) > 0 {
						continue
					}
				}
				choices = append(choices, []value.Row{rows[i], rows[j]})
			}
		}
		in.tables = append(in.tables, tab.Name)
		in.choices = append(in.choices, choices)
	}
	in.hosts = []map[string]value.Value{{}}
	for h, vals := range d.Hosts {
		var next []map[string]value.Value
		for _, m := range in.hosts {
			for _, v := range vals {
				n := map[string]value.Value{h: v}
				for k, x := range m {
					n[k] = x
				}
				next = append(next, n)
			}
		}
		in.hosts = next
	}
	return in, nil
}

// addDefaults adds to d the default domains of table's columns, under
// its own name, for a table the query does not name but references.
func addDefaults(d core.Domains, table string, cat *catalog.Catalog) {
	td, err := core.DefaultDomains(cat, &ast.Select{From: []ast.TableRef{{Table: table}}})
	if err != nil {
		panic(err)
	}
	for k, v := range td.Cols {
		d.Cols[k] = v
	}
}

func inKeyOrForeignKey(tab *catalog.Table, col int) bool {
	for _, k := range tab.Keys {
		if slices.Contains(k.Columns, col) {
			return true
		}
	}
	for _, fk := range tab.ForeignKeys {
		if slices.Contains(fk.Columns, col) {
			return true
		}
	}
	return false
}

// blocks returns every query block of q: set-operation operands and the
// subqueries of their WHERE clauses, at any depth.
func blocks(q ast.Query) []*ast.Select {
	var out []*ast.Select
	var add func(s *ast.Select)
	add = func(s *ast.Select) {
		out = append(out, s)
		ast.WalkExpr(s.Where, func(e ast.Expr) bool {
			switch x := e.(type) {
			case *ast.Exists:
				add(x.Query)
				return false
			case *ast.InSubquery:
				add(x.Query)
				return false
			}
			return true
		})
	}
	switch x := q.(type) {
	case *ast.Select:
		add(x)
	case *ast.SetOp:
		add(x.Left)
		add(x.Right)
	}
	return out
}
