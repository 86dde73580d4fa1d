package plan

import (
	"strings"
	"testing"

	"uniqopt/internal/core"
	"uniqopt/internal/engine"
	"uniqopt/internal/sql/parser"
	"uniqopt/internal/value"
	"uniqopt/internal/workload"
)

// runOrdered executes src with the planner and with the reference
// executor, asserts identical results, and returns the planned run.
func runOrdered(t *testing.T, src string, hosts map[string]value.Value) *Result {
	t.Helper()
	db := smallDB(t)
	q, err := parser.ParseQuery(src)
	if err != nil {
		t.Fatal(err)
	}
	ordered, err := NewPlanner(db, Options{}).explained(q, hosts)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := reference(db, q, hosts)
	if err != nil {
		t.Fatal(err)
	}
	if !engine.MultisetEqual(ordered.Rel, ref) {
		t.Fatalf("join ordering changed the result for %q:\nordered %d rows, reference %d rows",
			src, ordered.Rel.Len(), ref.Len())
	}
	return ordered
}

// The constant-filtered table starts the join even when written last,
// and the table probed through its bound key carries the unary-key
// cardinality bound as its justification.
func TestJoinOrderSelectiveTableFirst(t *testing.T) {
	res := runOrdered(t, `SELECT S.SNAME, P.PNO FROM SUPPLIER S, PARTS P
		WHERE S.SNO = P.SNO AND P.COLOR = 'RED'`, nil)
	if !hasPlanLine(res, "join order: P, S (") {
		t.Errorf("filtered P should start the join:\n%s", planText(res))
	}
}

// A whole candidate key bound by constants makes that table the start
// regardless of other filters elsewhere.
func TestJoinOrderKeyBoundStartsFirst(t *testing.T) {
	res := runOrdered(t, `SELECT S.SNAME, P.PNO FROM PARTS P, SUPPLIER S
		WHERE S.SNO = P.SNO AND S.SNO = 7 AND P.COLOR = 'RED'`, nil)
	if !hasPlanLine(res, "join order: S, P (") {
		t.Errorf("key-bound S should start the join:\n%s", planText(res))
	}
}

// S.SNO = P.SNO together with S.SNO = 7 implies P.SNO = 7; the derived
// equality must sink below the join as a pushed filter on P.
func TestDerivedConstEqualityPushdown(t *testing.T) {
	res := runOrdered(t, `SELECT S.SNAME, P.PNO FROM SUPPLIER S, PARTS P
		WHERE S.SNO = P.SNO AND S.SNO = 7`, nil)
	if !hasPlanLine(res, "P.SNO = 7") {
		t.Errorf("derived equality P.SNO = 7 not pushed below the join:\n%s",
			planText(res))
	}
}

// A table with no predicate connecting it to the rest goes last — the
// Cartesian product runs over the smallest possible prefix.
func TestJoinOrderCartesianLast(t *testing.T) {
	res := runOrdered(t, `SELECT S.SNAME, P.PNO, A.ANO FROM AGENTS A, SUPPLIER S, PARTS P
		WHERE S.SNO = P.SNO AND P.COLOR = 'RED' AND A.SNO = A.SNO`, nil)
	line := ""
	for _, l := range planLines(res) {
		if strings.HasPrefix(l, "join order: ") {
			line = l
		}
	}
	if line == "" {
		t.Fatalf("no join order note:\n%s", planText(res))
	}
	if !strings.Contains(line, ", A (written: ") {
		t.Errorf("unconnected A should be joined last, got %s", line)
	}
}

// In a three-way chain with a point-bound end, the greedy order walks
// the chain from the bound table outward so each intermediate stays
// small; the plan must spell out the per-position bounds.
func TestJoinOrderThreeWayChain(t *testing.T) {
	res := runOrdered(t, `SELECT A.ANO FROM AGENTS A, PARTS P, SUPPLIER S
		WHERE A.SNO = P.SNO AND P.SNO = S.SNO AND S.SNO = 3`, nil)
	if !hasPlanLine(res, "join order: S, P, A (") {
		t.Errorf("chain should start at key-bound S:\n%s", planText(res))
	}
}

// The ordered planner and the oracle agree on every paper
// example, with and without rewrites — ordering is a pure
// execution-strategy change, never a semantic one.
func TestJoinOrderEquivalenceOnPaperExamples(t *testing.T) {
	db := smallDB(t)
	for _, name := range []string{"example1", "example2", "example3", "example4",
		"example6", "example7", "example8", "example9", "example10", "example11"} {
		src, ok := workload.PaperQueries[name]
		if !ok {
			continue
		}
		q, err := parser.ParseQuery(src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		hosts := hostsFor(name)
		ref, err := reference(db, q, hosts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, opts := range []Options{
			{},
			{ApplyRewrites: true, Core: core.Options{UseKeyFDs: true}},
		} {
			ordered, err := NewPlanner(db, opts).Run(q, byName(hosts))
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !engine.MultisetEqual(ordered.Rel, ref) {
				t.Errorf("%s: ordering changed the result (rewrites=%v)", name, opts.ApplyRewrites)
			}
		}
	}
}

// EXPLAIN carries the justification: the chosen order, why the start
// table starts, and the uniqueness bound behind each join position.
func TestExplainNamesBounds(t *testing.T) {
	db := smallDB(t)
	q, err := parser.ParseQuery(`SELECT S.SNAME, P.PNO FROM SUPPLIER S, PARTS P
		WHERE S.SNO = P.SNO AND P.COLOR = 'RED'`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := NewPlanner(db, Options{}).explained(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	rendered := res.Root.Format(false)
	for _, want := range []string{
		"join order: P, S (written: S, P)",
		"start P: constant-bound COLOR",
		"unique probe of S: key (SNO) bound by S.SNO = P.SNO ⇒ at most 1 row per outer row",
	} {
		if !strings.Contains(rendered, want) {
			t.Errorf("EXPLAIN missing %q:\n%s", want, rendered)
		}
	}
}
