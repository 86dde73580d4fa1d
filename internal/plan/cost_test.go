package plan

import (
	"strings"
	"testing"

	"uniqopt/internal/engine"
	"uniqopt/internal/sql/parser"
	"uniqopt/internal/storage"
	"uniqopt/internal/workload"
)

func estimate(t *testing.T, db *storage.DB, src string) float64 {
	t.Helper()
	q, err := parser.ParseQuery(src)
	if err != nil {
		t.Fatal(err)
	}
	c, err := EstimateCost(db, q)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// The estimator must rank the obviously expensive strategies above the
// obviously cheap ones: nested-loop subquery probing above a single
// join, Cartesian products above equi-joins, and it must grow with the
// data.
func TestCostEstimateOrdering(t *testing.T) {
	db := smallDB(t)
	nested := estimate(t, db, `SELECT S.SNO FROM SUPPLIER S
		WHERE EXISTS (SELECT * FROM PARTS P WHERE P.SNO = S.SNO AND P.COLOR = 'RED')`)
	joined := estimate(t, db, `SELECT DISTINCT S.SNO FROM SUPPLIER S, PARTS P
		WHERE P.SNO = S.SNO AND P.COLOR = 'RED'`)
	if nested <= joined {
		t.Errorf("nested-loop estimate (%.0f) should exceed join estimate (%.0f)", nested, joined)
	}
	product := estimate(t, db, `SELECT S.SNO FROM SUPPLIER S, PARTS P`)
	equi := estimate(t, db, `SELECT S.SNO FROM SUPPLIER S, PARTS P WHERE S.SNO = P.SNO`)
	if product <= equi {
		t.Errorf("product estimate (%.0f) should exceed equi-join estimate (%.0f)", product, equi)
	}

	// Monotone in cardinality.
	cfg := workload.DefaultConfig()
	cfg.Suppliers = 400
	big, err := workload.NewDB(cfg)
	if err != nil {
		t.Fatal(err)
	}
	smallCost := estimate(t, db, `SELECT S.SNO FROM SUPPLIER S`)
	bigCost := estimate(t, big, `SELECT S.SNO FROM SUPPLIER S`)
	if bigCost <= smallCost {
		t.Errorf("cost must grow with table size: %.0f vs %.0f", bigCost, smallCost)
	}
}

// A bound host variable is a single value at execution time, so a
// parameterized point lookup on an indexed column must cost the same
// as its literal twin and far less than a full scan — the physical
// planner turns both into the same index probe. Without an index the
// assist must not apply.
func TestCostHostVarPointLookup(t *testing.T) {
	db := indexedDB(t)
	scan := estimate(t, db, `SELECT S.SNAME FROM SUPPLIER S`)
	hostPt := estimate(t, db, `SELECT S.SNAME FROM SUPPLIER S WHERE S.SNO = :N`)
	litPt := estimate(t, db, `SELECT S.SNAME FROM SUPPLIER S WHERE S.SNO = 3`)
	if hostPt != litPt {
		t.Errorf("host-var point lookup (%.2f) must cost like the literal one (%.2f)", hostPt, litPt)
	}
	if hostPt >= scan {
		t.Errorf("indexed point lookup (%.2f) must undercut a full scan (%.2f)", hostPt, scan)
	}
	rng := estimate(t, db, `SELECT S.SNAME FROM SUPPLIER S WHERE S.SNO >= :N`)
	if rng >= scan {
		t.Errorf("indexed range scan (%.2f) must undercut a full scan (%.2f)", rng, scan)
	}
	if rng <= hostPt {
		t.Errorf("range scan (%.2f) must cost more than a point lookup (%.2f)", rng, hostPt)
	}

	// No index: host-var equality still narrows the estimated output,
	// but the scan itself must be charged in full.
	plain := smallDB(t)
	noIx := estimate(t, plain, `SELECT S.SNAME FROM SUPPLIER S WHERE S.SNO = :N`)
	full := estimate(t, plain, `SELECT S.SNAME FROM SUPPLIER S`)
	if noIx != full {
		t.Errorf("without an index the scan cost must stay %.2f, got %.2f", full, noIx)
	}
}

func TestCostEstimateSetOp(t *testing.T) {
	db := smallDB(t)
	c := estimate(t, db, `SELECT S.SNO FROM SUPPLIER S
		INTERSECT SELECT A.SNO FROM AGENTS A`)
	if c <= 0 {
		t.Errorf("set-op estimate = %.0f", c)
	}
}

// Cost-based mode keeps the rewrite when the model agrees it is
// cheaper, records the decision, and never changes the answer.
func TestCostBasedKeepsCheaperRewrite(t *testing.T) {
	db := smallDB(t)
	src := `SELECT S.SNO, S.SNAME FROM SUPPLIER S
		WHERE EXISTS (SELECT * FROM PARTS P WHERE P.SNO = S.SNO AND P.COLOR = 'RED')`
	q, err := parser.ParseQuery(src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := NewPlanner(db, Options{ApplyRewrites: true, CostBased: true}).explained(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rewrites) == 0 {
		t.Fatal("the model must prefer the join over nested-loop probing")
	}
	found := false
	for _, line := range planLines(res) {
		if strings.HasPrefix(line, "CostChoice(rewritten") {
			found = true
		}
	}
	if !found {
		t.Errorf("decision not recorded:\n%s", planText(res))
	}
	ref, err := engine.NewExecutor(db, nil).Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if !engine.MultisetEqual(ref, res.Rel) {
		t.Error("cost-based run changed semantics")
	}
}

// When the model prefers the original, the rewrites are discarded and
// the original executes — still correct.
func TestCostBasedCanDiscardRewrites(t *testing.T) {
	db := smallDB(t)
	// Hand the planner a query whose only rewrite is join elimination
	// but where the model cannot see the benefit clearly either way;
	// whatever it decides, the answer must match the reference and the
	// decision must be recorded.
	src := `SELECT P.PNO, P.PNAME FROM SUPPLIER S, PARTS P WHERE S.SNO = P.SNO`
	q, err := parser.ParseQuery(src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := NewPlanner(db, Options{ApplyRewrites: true, CostBased: true}).explained(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	decided := false
	for _, line := range planLines(res) {
		if strings.HasPrefix(line, "CostChoice(") {
			decided = true
		}
	}
	if !decided {
		t.Errorf("cost decision missing from plan:\n%s", planText(res))
	}
	ref, err := engine.NewExecutor(db, nil).Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if !engine.MultisetEqual(ref, res.Rel) {
		t.Error("cost-based run changed semantics")
	}
}

// Property: cost-based planning preserves semantics across the random
// corpus (whatever the model chooses).
func TestCostBasedEquivalenceProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("property suite is slow")
	}
	db := smallDB(t)
	for _, name := range []string{"example1", "example7", "example8", "example9"} {
		src := workload.PaperQueries[name]
		q, err := parser.ParseQuery(src)
		if err != nil {
			t.Fatal(err)
		}
		hosts := hostsFor(name)
		res, err := NewPlanner(db, Options{ApplyRewrites: true, CostBased: true}).Run(q, hosts)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := engine.NewExecutor(db, hosts).Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if !engine.MultisetEqual(ref, res.Rel) {
			t.Errorf("%s: cost-based run changed semantics", name)
		}
	}
}
