package plan

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"uniqopt/internal/core"
	"uniqopt/internal/engine"
	"uniqopt/internal/oracle"
	"uniqopt/internal/sql/ast"
	"uniqopt/internal/sql/parser"
	"uniqopt/internal/storage"
	"uniqopt/internal/value"
	"uniqopt/internal/valuetest"
	"uniqopt/internal/workload"
)

// reference evaluates q with the oracle, the definitional evaluator
// every plan is held to.
func reference(db *storage.DB, q ast.Query, hosts map[string]value.Value) (*engine.Relation, error) {
	cols, rows, err := oracle.Query(db, q, hosts)
	if err != nil {
		return nil, err
	}
	return &engine.Relation{Cols: cols, Rows: rows}, nil
}

// byName looks host variables up in hosts, the way Run and Bind ask for
// them.
func byName(hosts map[string]value.Value) func(string) (value.Value, bool) {
	return func(name string) (value.Value, bool) {
		v, ok := hosts[name]
		return v, ok
	}
}

func smallDB(t testing.TB) *storage.DB {
	t.Helper()
	cfg := workload.DefaultConfig()
	cfg.Suppliers = 40
	cfg.PartsPerSupplier = 5
	db, err := workload.NewDB(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func hostsFor(name string) map[string]value.Value {
	hosts := map[string]value.Value{}
	for _, hv := range workload.PaperHostVars[name] {
		switch hv {
		case "SUPPLIER-NAME":
			hosts[hv] = value.String_("Smith")
		default:
			hosts[hv] = value.Int(3)
		}
	}
	return hosts
}

// runThreeWays executes src with the oracle, the baseline
// planner, and the rewriting planner, and checks multiset equality.
func runThreeWays(t *testing.T, db *storage.DB, src string, hosts map[string]value.Value) (*Result, *Result) {
	t.Helper()
	q, err := parser.ParseQuery(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	ref, err := reference(db, q, hosts)
	if err != nil {
		t.Fatalf("reference %q: %v", src, err)
	}
	base, err := NewPlanner(db, Options{}).explained(q, hosts)
	if err != nil {
		t.Fatalf("baseline %q: %v", src, err)
	}
	opt, err := NewPlanner(db, Options{ApplyRewrites: true,
		Core: core.Options{UseKeyFDs: true}}).explained(q, hosts)
	if err != nil {
		t.Fatalf("optimized %q: %v", src, err)
	}
	if !engine.MultisetEqual(ref, base.Rel) {
		t.Fatalf("baseline differs from reference for %q\nref(%d rows) vs base(%d rows)",
			src, ref.Len(), base.Rel.Len())
	}
	if !engine.MultisetEqual(ref, opt.Rel) {
		t.Fatalf("optimized differs from reference for %q\nrewrites: %v\nref(%d) vs opt(%d)",
			src, rewriteNames(opt), ref.Len(), opt.Rel.Len())
	}
	return base, opt
}

func rewriteNames(r *Result) []string {
	var out []string
	for _, ap := range r.Rewrites {
		out = append(out, string(ap.Rule))
	}
	return out
}

// Every paper example must produce identical results under all three
// execution paths, and the expected rewrites must fire.
func TestPaperQueriesEquivalence(t *testing.T) {
	db := smallDB(t)
	wantRewrite := map[string]core.Rule{
		"example1": core.RuleEliminateDistinct,
		"example4": core.RuleEliminateDistinct,
		"example6": core.RuleEliminateDistinct,
		"example7": core.RuleSubqueryToJoin,
		"example8": core.RuleSubqueryToDistinct,
		"example9": core.RuleIntersectToExists,
	}
	for name, src := range workload.PaperQueries {
		base, opt := runThreeWays(t, db, src, hostsFor(name))
		_ = base
		if rule, ok := wantRewrite[name]; ok {
			found := false
			for _, ap := range opt.Rewrites {
				if ap.Rule == rule {
					found = true
				}
			}
			if !found {
				t.Errorf("%s: expected rewrite %s, got %v", name, rule, rewriteNames(opt))
			}
		}
	}
}

// Example 1's measurable claim: dropping the redundant DISTINCT
// removes the result sort of the paper's baseline entirely — and the
// hash table the default baseline fills instead.
func TestE1SortAvoidance(t *testing.T) {
	db := smallDB(t)
	src := workload.PaperQueries["example1"]
	base, opt := runThreeWays(t, db, src, nil)
	q, err := parser.ParseQuery(src)
	if err != nil {
		t.Fatal(err)
	}
	sorted, err := NewPlanner(db, Options{SortDistinct: true}).Run(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sorted.Stats.SortRuns == 0 {
		t.Error("the paper's baseline must sort for DISTINCT")
	}
	if opt.Stats.SortRuns != 0 {
		t.Errorf("optimized plan should not sort; stats: %s", opt.Stats.String())
	}
	if opt.Stats.Comparisons >= sorted.Stats.Comparisons {
		t.Errorf("optimized comparisons (%d) should be below the sort baseline's (%d)",
			opt.Stats.Comparisons, sorted.Stats.Comparisons)
	}
	if opt.Stats.HashInserts >= base.Stats.HashInserts {
		t.Errorf("optimized hash inserts (%d) should be below the hash baseline's (%d)",
			opt.Stats.HashInserts, base.Stats.HashInserts)
	}
}

// Example 7's claim: merging the subquery replaces per-row nested-loop
// probes with a single hash join.
func TestE2SubqueryProbesEliminated(t *testing.T) {
	db := smallDB(t)
	src := workload.PaperQueries["example7"]
	base, opt := runThreeWays(t, db, src, hostsFor("example7"))
	if base.Stats.SubqueryRuns == 0 {
		t.Error("baseline must run nested-loop subqueries")
	}
	if opt.Stats.SubqueryRuns != 0 {
		t.Errorf("optimized plan should not probe subqueries; stats: %s", opt.Stats.String())
	}
}

// Fixpoint chaining: Example 7 merges (Theorem 2) and then the merged
// DISTINCT-free query needs no further change; a DISTINCT query that
// merges via Corollary 1 may then drop its DISTINCT if keys are bound.
func TestRewriteChaining(t *testing.T) {
	db := smallDB(t)
	// DISTINCT outer + at-most-one subquery: merge (valid via
	// DISTINCT), then eliminate-distinct fires because both keys are
	// bound after the merge.
	src := `SELECT DISTINCT S.SNO, S.SNAME FROM SUPPLIER S
		WHERE EXISTS (SELECT * FROM PARTS P WHERE S.SNO = P.SNO AND P.PNO = 1)`
	q, _ := parser.ParseQuery(src)
	opt, err := NewPlanner(db, Options{ApplyRewrites: true}).Run(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	rules := rewriteNames(opt)
	if len(rules) < 2 {
		t.Fatalf("expected chained rewrites, got %v", rules)
	}
	if rules[0] != string(core.RuleSubqueryToJoin) || rules[1] != string(core.RuleEliminateDistinct) {
		t.Errorf("rules = %v", rules)
	}
	if opt.Stats.SortRuns != 0 {
		t.Error("after chaining no sort should remain")
	}
	ref, _ := reference(db, q, nil)
	if !engine.MultisetEqual(ref, opt.Rel) {
		t.Error("chained rewrite changed semantics")
	}
}

// The paper's sort baseline must agree with the hash distinct every
// other plan runs, and only it may sort.
func TestSortDistinctBaseline(t *testing.T) {
	db := smallDB(t)
	src := workload.PaperQueries["example2"] // genuinely needs DISTINCT
	q, _ := parser.ParseQuery(src)
	hashRes, err := NewPlanner(db, Options{}).explained(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	sortRes, err := NewPlanner(db, Options{SortDistinct: true}).explained(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !engine.MultisetEqual(sortRes.Rel, hashRes.Rel) {
		t.Error("hash distinct disagrees with sort distinct")
	}
	if hashRes.Stats.SortRuns != 0 || sortRes.Stats.SortRuns == 0 {
		t.Error("SortDistinct did not switch the distinct method")
	}
	for res, want := range map[*Result]string{hashRes: "DistinctHash", sortRes: "DistinctSort"} {
		if !hasPlanLine(res, want) {
			t.Errorf("plan should record %s:\n%s", want, planText(res))
		}
	}
}

// Plan text must reflect the chosen operators.
func TestPlanDescription(t *testing.T) {
	db := smallDB(t)
	q, _ := parser.ParseQuery(workload.PaperQueries["example1"])
	res, err := NewPlanner(db, Options{}).explained(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	text := planText(res)
	for _, want := range []string{"Scan(SUPPLIER as S)", "Scan(PARTS as P)", "HashJoin", "DistinctHash"} {
		if !strings.Contains(text, want) {
			t.Errorf("plan missing %q:\n%s", want, text)
		}
	}
}

// Property: for a corpus of random queries, baseline and rewriting
// planners agree with the oracle on several database
// instances. This is the end-to-end semantic-preservation suite (E8).
func TestRandomQueryEquivalenceProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("property suite is slow")
	}
	for seed := int64(1); seed <= 3; seed++ {
		cfg := workload.DefaultConfig()
		cfg.Suppliers = 30
		cfg.PartsPerSupplier = 4
		cfg.Seed = seed
		db, err := workload.NewDB(cfg)
		if err != nil {
			t.Fatal(err)
		}
		r := rand.New(rand.NewSource(seed * 77))
		for i := 0; i < 120; i++ {
			src := workload.RandomQuery(r)
			runThreeWays(t, db, src, nil)
		}
	}
}

// NULL candidate keys flowing through set-operation rewrites: the ≐
// semantics must be preserved end to end (the §5.3 Starburst Rule 8
// correction).
func TestSetOpRewriteWithNullKeys(t *testing.T) {
	cat := workload.BenchCatalog()
	db := storage.NewDB(cat)
	// Referenced suppliers first (the schema declares the FK).
	for _, sno := range []int64{1, 2} {
		if err := db.Insert("SUPPLIER", value.Row{value.Int(sno), value.String_("s"),
			value.String_("Toronto"), value.Int(1), value.String_("Active")}); err != nil {
			t.Fatal(err)
		}
	}
	// Two parts tables' worth of rows, one with NULL OEM-PNO each.
	rows := [][]value.Value{
		{value.Int(1), value.Int(1), value.String_("a"), value.Null, value.String_("RED")},
		{value.Int(1), value.Int(2), value.String_("b"), value.Int(7), value.String_("RED")},
		{value.Int(2), value.Int(1), value.String_("c"), value.Int(9), value.String_("BLUE")},
	}
	for _, r := range rows {
		if err := db.Insert("PARTS", value.Row(r)); err != nil {
			t.Fatal(err)
		}
	}
	src := `SELECT ALL P.OEM-PNO FROM PARTS P WHERE P.COLOR = 'RED'
		INTERSECT
		SELECT ALL Q.OEM-PNO FROM PARTS Q`
	q, err := parser.ParseQuery(src)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := reference(db, q, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The NULL OEM-PNO row must be in the intersection (NULL ≐ NULL).
	foundNull := false
	for _, row := range ref.Rows {
		if row[0].IsNull() {
			foundNull = true
		}
	}
	if !foundNull {
		t.Fatal("reference must include the NULL row")
	}
	opt, err := NewPlanner(db, Options{ApplyRewrites: true}).Run(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(opt.Rewrites) == 0 {
		t.Fatal("intersect rewrite should fire (OEM-PNO is a candidate key)")
	}
	if !engine.MultisetEqual(ref, opt.Rel) {
		t.Errorf("NULL-aware rewrite broke semantics:\nref %v\nopt %v", ref, opt.Rel)
	}
}

// Ablation #4: a deliberately naive correlation predicate (plain
// equality, no NULL handling) loses the NULL row — reproducing the
// Starburst Rule 8 bug the paper points out. This pins why the
// NULL-aware predicate matters.
func TestNaiveCorrelationLosesNullRow(t *testing.T) {
	cat := workload.BenchCatalog()
	db := storage.NewDB(cat)
	if err := db.Insert("SUPPLIER", value.Row{value.Int(1), value.String_("s"),
		value.String_("Toronto"), value.Int(1), value.String_("Active")}); err != nil {
		t.Fatal(err)
	}
	rows := [][]value.Value{
		{value.Int(1), value.Int(1), value.String_("a"), value.Null, value.String_("RED")},
		{value.Int(1), value.Int(2), value.String_("b"), value.Int(7), value.String_("RED")},
	}
	for _, r := range rows {
		if err := db.Insert("PARTS", value.Row(r)); err != nil {
			t.Fatal(err)
		}
	}
	// Hand-written naive rewrite of the INTERSECT above.
	naive := `SELECT ALL P.OEM-PNO FROM PARTS P WHERE P.COLOR = 'RED'
		AND EXISTS (SELECT * FROM PARTS Q WHERE Q.OEM-PNO = P.OEM-PNO)`
	q, _ := parser.ParseQuery(naive)
	res, err := reference(db, q, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		if row[0].IsNull() {
			t.Fatal("naive correlation unexpectedly kept the NULL row")
		}
	}
	if res.Len() != 1 {
		t.Errorf("naive rewrite rows = %d, want 1 (NULL row lost)", res.Len())
	}
}

func TestPlannerErrors(t *testing.T) {
	db := smallDB(t)
	for _, src := range []string{
		"SELECT X FROM NOPE",
		"SELECT S.SNO FROM SUPPLIER S WHERE S.SNO = :UNBOUND",
	} {
		q, err := parser.ParseQuery(src)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := NewPlanner(db, Options{}).Run(q, nil); err == nil {
			t.Errorf("Run(%q): expected error", src)
		}
	}
}

// Three-table queries plan as a left-deep hash-join tree and agree
// with the oracle.
func TestThreeWayJoinEquivalence(t *testing.T) {
	// A compact instance: the oracle loops over the full three-way
	// product.
	cfg := workload.DefaultConfig()
	cfg.Suppliers = 12
	cfg.PartsPerSupplier = 3
	cfg.AgentsPerSupplier = 2
	db, err := workload.NewDB(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srcs := []string{
		`SELECT DISTINCT S.SNO, P.PNO, A.ANO FROM SUPPLIER S, PARTS P, AGENTS A
			WHERE S.SNO = P.SNO AND S.SNO = A.SNO`,
		`SELECT S.SNAME, P.PNAME, A.ANAME FROM SUPPLIER S, PARTS P, AGENTS A
			WHERE S.SNO = P.SNO AND P.SNO = A.SNO AND P.COLOR = 'RED'`,
		// One cross pair (no join predicate between S and A directly).
		`SELECT ALL S.SNO FROM SUPPLIER S, PARTS P, AGENTS A
			WHERE S.SNO = P.SNO AND A.ANO = 1 AND A.SNO = P.SNO`,
	}
	for _, src := range srcs {
		base, opt := runThreeWays(t, db, src, nil)
		_ = base
		_ = opt
	}
}

// A genuinely predicate-free Cartesian product must still execute
// correctly (Product operator path).
func TestCartesianProductPath(t *testing.T) {
	db := smallDB(t)
	base, _ := runThreeWays(t, db,
		`SELECT S.SNO, A.ANO FROM SUPPLIER S, AGENTS A WHERE S.SNO = 1`, nil)
	found := false
	for _, line := range planLines(base) {
		if line == "Product" {
			found = true
		}
	}
	if !found {
		t.Errorf("expected a Product operator:\n%s", planText(base))
	}
}

// explained is Run the EXPLAIN ANALYZE way, for tests that assert on the
// plan: the result carries its tree. On the way it holds the analyzed
// execution to the plain one (no tree, the same rows in the same order,
// the same counted work) and the executed tree to the plan-only
// rendering (the same operators, details and notes).
func (p *Planner) explained(q ast.Query, hosts map[string]value.Value) (*Result, error) {
	c, err := p.Compile(q)
	if err != nil {
		return nil, err
	}
	vals, err := c.Bind(byName(hosts))
	if err != nil {
		return nil, err
	}
	res, err := p.Execute(context.Background(), NewFrame(), c, vals, true)
	if err != nil {
		return nil, err
	}
	plain, err := p.Execute(context.Background(), NewFrame(), c, vals, false)
	if err != nil {
		return nil, fmt.Errorf("plain execution failed where the analyzed one did not: %w", err)
	}
	if plain.Root != nil || !valuetest.Same(plain.Rel.Cols, plain.Rel.Rows, res.Rel.Cols, res.Rel.Rows) || plain.Stats != res.Stats {
		return nil, fmt.Errorf("plain and analyzed executions differ:\n%s\n%s", &plain.Stats, &res.Stats)
	}
	if planOnly := c.Render(vals).Format(false); planOnly != res.Root.Format(false) {
		return nil, fmt.Errorf("plan-only and executed trees differ:\n%s\n%s", planOnly, res.Root.Format(false))
	}
	return res, nil
}

// planLines are the lines of an explained result's plan tree, one
// operator or note each, indentation trimmed.
func planLines(res *Result) []string {
	lines := strings.Split(strings.TrimSpace(res.Root.Format(false)), "\n")
	for i, l := range lines {
		lines[i] = strings.TrimPrefix(strings.TrimSpace(l), "-- ")
	}
	return lines
}

func planText(res *Result) string { return strings.Join(planLines(res), "\n") }
