package plan

import (
	"strings"
	"testing"

	"uniqopt/internal/core"
	"uniqopt/internal/engine"
	"uniqopt/internal/sql/parser"
)

// Join elimination fires through the planner fixpoint and preserves
// semantics as a multiset — including row multiplicities (one output
// row per PART, even though SUPPLIER is gone).
func TestJoinEliminationEquivalence(t *testing.T) {
	db := smallDB(t)
	for _, src := range []string{
		`SELECT P.PNO, P.PNAME FROM SUPPLIER S, PARTS P WHERE S.SNO = P.SNO`,
		`SELECT P.PNO FROM SUPPLIER S, PARTS P WHERE S.SNO = P.SNO AND P.COLOR = 'RED'`,
		`SELECT A.ANAME FROM SUPPLIER S, AGENTS A WHERE A.SNO = S.SNO`,
		`SELECT DISTINCT P.COLOR FROM SUPPLIER S, PARTS P WHERE S.SNO = P.SNO`,
	} {
		base, opt := runThreeWays(t, db, src, nil)
		eliminated := false
		for _, ap := range opt.Rewrites {
			if ap.Rule == core.RuleJoinElimination {
				eliminated = true
			}
		}
		if !eliminated {
			t.Errorf("%s: join elimination did not fire (%v)", src, rewriteNames(opt))
			continue
		}
		// The optimized plan must scan only one table.
		scans := 0
		for _, line := range planLines(opt) {
			if strings.HasPrefix(line, "Scan(") {
				scans++
			}
		}
		if scans != 1 {
			t.Errorf("%s: optimized plan scans %d tables:\n%s", src, scans,
				planText(opt))
		}
		if opt.Stats.RowsScanned >= base.Stats.RowsScanned {
			t.Errorf("%s: elimination should reduce scanned rows (%d vs %d)",
				src, opt.Stats.RowsScanned, base.Stats.RowsScanned)
		}
	}
}

// Chaining: eliminate the join, then drop a now-provable DISTINCT.
func TestJoinEliminationChainsWithDistinct(t *testing.T) {
	db := smallDB(t)
	src := `SELECT DISTINCT P.SNO, P.PNO FROM SUPPLIER S, PARTS P WHERE S.SNO = P.SNO`
	q, err := parser.ParseQuery(src)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := NewPlanner(db, Options{ApplyRewrites: true}).Run(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	rules := rewriteNames(opt)
	// eliminate-distinct can fire first (keys are bound even with the
	// join present) or after elimination; both must appear.
	joined := strings.Join(rules, ",")
	if !strings.Contains(joined, string(core.RuleJoinElimination)) ||
		!strings.Contains(joined, string(core.RuleEliminateDistinct)) {
		t.Errorf("rules = %v", rules)
	}
	ref, err := reference(db, q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !engine.MultisetEqual(ref, opt.Rel) {
		t.Error("chained elimination changed semantics")
	}
	if opt.Stats.SortRuns != 0 {
		t.Error("no sort should remain after the chain")
	}
}

// A query whose SUPPLIER participation matters (filter on S) must keep
// the join.
func TestJoinEliminationKeepsNeededJoins(t *testing.T) {
	db := smallDB(t)
	src := `SELECT P.PNO FROM SUPPLIER S, PARTS P
		WHERE S.SNO = P.SNO AND S.SCITY = 'Toronto'`
	q, _ := parser.ParseQuery(src)
	opt, err := NewPlanner(db, Options{ApplyRewrites: true}).Run(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, ap := range opt.Rewrites {
		if ap.Rule == core.RuleJoinElimination {
			t.Fatalf("join with a live filter must not be eliminated: %s", ap.After)
		}
	}
	ref, _ := reference(db, q, nil)
	if !engine.MultisetEqual(ref, opt.Rel) {
		t.Error("semantics changed")
	}
}

// workload.RandomQuery corpus re-run focused on FK-joined shapes: the
// equivalence property must hold with join elimination in the rule set
// (it participates in TestRandomQueryEquivalenceProperty too; this is
// the targeted version).
func TestJoinEliminationRandomizedEquivalence(t *testing.T) {
	db := smallDB(t)
	projections := []string{"P.PNO", "P.PNO, P.PNAME", "P.COLOR", "P.SNO, P.PNO"}
	filters := []string{"", " AND P.COLOR = 'RED'", " AND P.PNO = 2", " AND P.PNO > 3"}
	quants := []string{"", "ALL ", "DISTINCT "}
	for _, proj := range projections {
		for _, f := range filters {
			for _, qn := range quants {
				src := "SELECT " + qn + proj +
					" FROM SUPPLIER S, PARTS P WHERE S.SNO = P.SNO" + f
				runThreeWays(t, db, src, nil)
			}
		}
	}
}
