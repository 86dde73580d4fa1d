package plan

import (
	"strings"
	"testing"

	"uniqopt/internal/engine"
	"uniqopt/internal/sql/parser"
	"uniqopt/internal/storage"
	"uniqopt/internal/value"
	"uniqopt/internal/workload"
)

func indexedDB(t testing.TB) *storage.DB {
	t.Helper()
	cfg := workload.DefaultConfig()
	cfg.Suppliers = 60
	cfg.PartsPerSupplier = 5
	db, err := workload.NewDB(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := workload.CreateIndexes(db); err != nil {
		t.Fatal(err)
	}
	return db
}

// runIndexed executes src with and without indexes and asserts
// identical results; returns the indexed run.
func runIndexed(t *testing.T, src string, hosts map[string]value.Value) *Result {
	t.Helper()
	q, err := parser.ParseQuery(src)
	if err != nil {
		t.Fatal(err)
	}
	plainDB := smallishDB(t)
	ixDB := indexedDB(t)
	plain, err := NewPlanner(plainDB, Options{}).Run(q, byName(hosts))
	if err != nil {
		t.Fatal(err)
	}
	ix, err := NewPlanner(ixDB, Options{}).explained(q, hosts)
	if err != nil {
		t.Fatal(err)
	}
	if !engine.MultisetEqual(plain.Rel, ix.Rel) {
		t.Fatalf("index path changed the result for %q:\n%d vs %d rows",
			src, plain.Rel.Len(), ix.Rel.Len())
	}
	return ix
}

// smallishDB matches indexedDB's data, without indexes.
func smallishDB(t testing.TB) *storage.DB {
	t.Helper()
	cfg := workload.DefaultConfig()
	cfg.Suppliers = 60
	cfg.PartsPerSupplier = 5
	db, err := workload.NewDB(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func hasPlanLine(res *Result, substr string) bool {
	for _, line := range planLines(res) {
		if strings.Contains(line, substr) {
			return true
		}
	}
	return false
}

func TestIndexPointLookup(t *testing.T) {
	res := runIndexed(t, "SELECT S.SNAME FROM SUPPLIER S WHERE S.SNO = 7", nil)
	if !hasPlanLine(res, "IndexScan(S via SUPPLIER_SNO = 7)") {
		t.Errorf("plan missing index scan:\n%s", planText(res))
	}
	if res.Stats.IndexSeeks != 1 {
		t.Errorf("seeks = %d", res.Stats.IndexSeeks)
	}
	if res.Stats.RowsScanned != 1 {
		t.Errorf("scanned = %d, want 1 (point lookup)", res.Stats.RowsScanned)
	}
}

func TestIndexHostVarLookup(t *testing.T) {
	res := runIndexed(t, "SELECT S.SNAME FROM SUPPLIER S WHERE S.SNO = :N",
		map[string]value.Value{"N": value.Int(5)})
	if res.Stats.IndexSeeks != 1 {
		t.Errorf("host-var point lookup should use the index: %s", res.Stats.String())
	}
}

func TestIndexBetweenRange(t *testing.T) {
	res := runIndexed(t, "SELECT S.SNO FROM SUPPLIER S WHERE S.SNO BETWEEN 10 AND 20", nil)
	if !hasPlanLine(res, "IndexScan(S via SUPPLIER_SNO BETWEEN 10 AND 20)") {
		t.Errorf("plan:\n%s", planText(res))
	}
	if res.Stats.RowsScanned != 11 {
		t.Errorf("scanned = %d, want 11", res.Stats.RowsScanned)
	}
	if res.Rel.Len() != 11 {
		t.Errorf("rows = %d", res.Rel.Len())
	}
}

func TestIndexHalfOpenRanges(t *testing.T) {
	// >= consumes the conjunct; > keeps it as a residual filter.
	res := runIndexed(t, "SELECT S.SNO FROM SUPPLIER S WHERE S.SNO >= 58", nil)
	if res.Rel.Len() != 3 || res.Stats.RowsScanned != 3 {
		t.Errorf(">=: rows=%d scanned=%d", res.Rel.Len(), res.Stats.RowsScanned)
	}
	res = runIndexed(t, "SELECT S.SNO FROM SUPPLIER S WHERE S.SNO > 58", nil)
	if res.Rel.Len() != 2 {
		t.Errorf(">: rows=%d, want 2", res.Rel.Len())
	}
	if !hasPlanLine(res, "residual >") {
		t.Errorf("plan should note the residual boundary filter:\n%s",
			planText(res))
	}
	res = runIndexed(t, "SELECT S.SNO FROM SUPPLIER S WHERE S.SNO <= 3", nil)
	if res.Rel.Len() != 3 {
		t.Errorf("<=: rows=%d", res.Rel.Len())
	}
	res = runIndexed(t, "SELECT S.SNO FROM SUPPLIER S WHERE 3 > S.SNO", nil)
	if res.Rel.Len() != 2 {
		t.Errorf("flipped <: rows=%d", res.Rel.Len())
	}
}

// Regression: two half-open bounds on the same leading index column
// used to become one half-open IndexScanRange plus a residual filter,
// scanning every row past the lower bound. They must combine into a
// single closed range scan that touches only the qualifying rows.
func TestIndexClosedRangeCombinesBounds(t *testing.T) {
	res := runIndexed(t, "SELECT S.SNO FROM SUPPLIER S WHERE S.SNO >= 10 AND S.SNO <= 20", nil)
	if !hasPlanLine(res, "IndexScan(S via SUPPLIER_SNO BETWEEN 10 AND 20)") {
		t.Errorf("bounds not combined into one closed scan:\n%s", planText(res))
	}
	if res.Stats.RowsScanned != 11 {
		t.Errorf("scanned = %d, want 11 (closed range must not over-scan)", res.Stats.RowsScanned)
	}
	if res.Rel.Len() != 11 {
		t.Errorf("rows = %d, want 11", res.Rel.Len())
	}

	// Strict bounds still combine into one scan; each strict side keeps
	// its boundary check as a residual filter.
	res = runIndexed(t, "SELECT S.SNO FROM SUPPLIER S WHERE S.SNO > 10 AND S.SNO < 20", nil)
	if !hasPlanLine(res, "BETWEEN 10 AND 20") {
		t.Errorf("strict bounds not combined:\n%s", planText(res))
	}
	if !hasPlanLine(res, "residual >") || !hasPlanLine(res, "residual <") {
		t.Errorf("strict boundaries need residual filters:\n%s", planText(res))
	}
	if res.Stats.RowsScanned != 11 {
		t.Errorf("scanned = %d, want 11", res.Stats.RowsScanned)
	}
	if res.Rel.Len() != 9 {
		t.Errorf("rows = %d, want 9", res.Rel.Len())
	}

	if res.Stats.Batches == 0 {
		t.Error("every execution reports the batches its operators emitted")
	}
}

func TestIndexStringEquality(t *testing.T) {
	res := runIndexed(t, "SELECT P.PNO FROM PARTS P WHERE P.COLOR = 'RED'", nil)
	if !hasPlanLine(res, "IndexScan(P via PARTS_COLOR = 'RED')") {
		t.Errorf("plan:\n%s", planText(res))
	}
	// Every scanned row is RED.
	if int64(res.Rel.Len()) != res.Stats.RowsScanned {
		t.Errorf("index scan should touch only matching rows: %d vs %d",
			res.Rel.Len(), res.Stats.RowsScanned)
	}
}

func TestIndexCombinedWithJoin(t *testing.T) {
	res := runIndexed(t, `SELECT S.SNAME, P.PNO FROM SUPPLIER S, PARTS P
		WHERE S.SNO = P.SNO AND P.COLOR = 'RED' AND S.SCITY = 'Toronto'`, nil)
	if res.Stats.IndexSeeks != 2 {
		t.Errorf("both pushdowns should use indexes: %s\nplan:\n%s",
			res.Stats.String(), planText(res))
	}
	if !hasPlanLine(res, "HashJoin") {
		t.Errorf("join should remain hash-based:\n%s", planText(res))
	}
}

func TestNoIndexFallsBackToScan(t *testing.T) {
	res := runIndexed(t, "SELECT S.SNO FROM SUPPLIER S WHERE S.BUDGET = 10", nil)
	if res.Stats.IndexSeeks != 0 {
		t.Error("no index on BUDGET: must scan")
	}
	if !hasPlanLine(res, "Scan(SUPPLIER as S)") {
		t.Errorf("plan:\n%s", planText(res))
	}
}

func TestIndexNullBoundIsEmpty(t *testing.T) {
	res := runIndexed(t, "SELECT S.SNO FROM SUPPLIER S WHERE S.SNO = :N",
		map[string]value.Value{"N": value.Null})
	if res.Rel.Len() != 0 {
		t.Errorf("NULL-bound equality must be empty, got %d rows", res.Rel.Len())
	}
	if !hasPlanLine(res, "never-true NULL bound") {
		t.Errorf("plan:\n%s", planText(res))
	}
}

// runBoth executes src under opts with and without indexes and asserts
// the same multiset; it returns the indexed run.
func runBoth(t *testing.T, opts Options, src string, hosts map[string]value.Value) *Result {
	t.Helper()
	q, err := parser.ParseQuery(src)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := NewPlanner(smallishDB(t), opts).Run(q, byName(hosts))
	if err != nil {
		t.Fatal(err)
	}
	ix, err := NewPlanner(indexedDB(t), opts).explained(q, hosts)
	if err != nil {
		t.Fatal(err)
	}
	if !engine.MultisetEqual(plain.Rel, ix.Rel) {
		t.Fatalf("index path changed the result for %q:\n%d vs %d rows", src, plain.Rel.Len(), ix.Rel.Len())
	}
	return ix
}

// Rule A: over an index-bounded prefix a join step whose join columns
// and constants bind a leading index prefix of the new table seeks that
// index per prefix row instead of reading the table.
func TestIndexJoinRuleA(t *testing.T) {
	ex11 := `SELECT ALL S.SNO, S.SNAME FROM SUPPLIER S, PARTS P
		WHERE S.SNO BETWEEN :L AND :H AND S.SNO = P.SNO AND P.PNO = :PARTNO`
	hosts := map[string]value.Value{"L": value.Int(10), "H": value.Int(20), "PARTNO": value.Int(2)}
	res := runIndexed(t, ex11, hosts)
	for _, want := range []string{
		"join order: S, P (as written)",
		"start S: range-bound, read through SUPPLIER_SNO",
		"IndexJoin(P via PARTS_SNO = (S.SNO, :PARTNO))",
		"unique probe of P: key (SNO, PNO) bound by S.SNO = P.SNO, P.PNO = :PARTNO ⇒ at most 1 row per outer row",
		"IndexScan(S via SUPPLIER_SNO BETWEEN 10 AND 20)",
	} {
		if !hasPlanLine(res, want) {
			t.Errorf("plan missing %q:\n%s", want, planText(res))
		}
	}
	if res.Rel.Len() != 11 || res.Stats.RowsScanned != 22 || res.Stats.IndexSeeks != 12 || res.Stats.HashInserts != 0 {
		t.Errorf("rows=%d, %s; want 11 rows from 22 scanned in 12 seeks, nothing hashed", res.Rel.Len(), res.Stats.String())
	}

	// A NULL key constant binds: the comparison it stands for is never
	// true, and the probe matches nothing.
	hosts["PARTNO"] = value.Null
	res = runIndexed(t, ex11, hosts)
	if !hasPlanLine(res, "IndexJoin(P via PARTS_SNO") || res.Rel.Len() != 0 || res.Stats.RowsScanned != 11 {
		t.Errorf("NULL key constant: %d rows, %s\n%s", res.Rel.Len(), res.Stats.String(), planText(res))
	}

	// An unbound one is refused before anything runs, with or without
	// the index. Rendered plan-only without values, the statement is the
	// plan a non-NULL binding executes, each variable spelled as written.
	delete(hosts, "PARTNO")
	q, err := parser.ParseQuery(ex11)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewPlanner(indexedDB(t), Options{}).Compile(q, &engine.Stats{})
	if err != nil {
		t.Fatal(err)
	}
	if text := c.Render(nil).Format(false); !strings.Contains(text, "IndexJoin(P via PARTS_SNO = (S.SNO, :PARTNO))") ||
		!strings.Contains(text, "IndexScan(S via SUPPLIER_SNO BETWEEN :L AND :H)") {
		t.Errorf("unbound key constant renders:\n%s", text)
	}
	_, err = c.Bind(byName(hosts))
	_, plainErr := NewPlanner(smallishDB(t), Options{}).Run(q, byName(hosts))
	if err == nil || plainErr == nil || err.Error() != plainErr.Error() ||
		err.Error() != "plan: unbound host variable :PARTNO" {
		t.Errorf("unbound key constant: %v; without indexes: %v", err, plainErr)
	}

	// A key prefix short of a key is still a bounded probe: every part
	// of three suppliers, by three seeks.
	res = runIndexed(t, `SELECT S.SNO, P.PNO FROM SUPPLIER S, PARTS P
		WHERE S.SNO BETWEEN 10 AND 12 AND S.SNO = P.SNO AND P.PNAME <> 'x'`, nil)
	if !hasPlanLine(res, "IndexJoin(P via PARTS_SNO = (S.SNO) where P.PNAME <> 'x')") ||
		res.Rel.Len() != 15 || res.Stats.RowsScanned != 3+15 || res.Stats.IndexSeeks != 1+3 {
		t.Errorf("prefix probe: %d rows, %s\n%s", res.Rel.Len(), res.Stats.String(), planText(res))
	}

	for what, src := range map[string]string{
		"the prefix starts with a full scan": `SELECT S.SNO, P.PNO FROM SUPPLIER S, PARTS P
			WHERE S.BUDGET > 10 AND S.SNO = P.SNO AND P.PNO = 2`,
		"the new table has an access path of its own": `SELECT S.SNO, P.PNO FROM SUPPLIER S, PARTS P
			WHERE S.SNO BETWEEN 10 AND 12 AND S.SNO = P.SNO AND P.COLOR = 'RED'`,
		"no index leads with the join column": `SELECT S.SNO, A.ANO FROM SUPPLIER S, AGENTS A
			WHERE S.SNO BETWEEN 10 AND 12 AND S.SNO = A.SNO`,
	} {
		if res := runIndexed(t, src, nil); hasPlanLine(res, "IndexJoin") || !hasPlanLine(res, "HashJoin") {
			t.Errorf("%s, yet:\n%s", what, planText(res))
		}
	}
}

// Rule B: a table of a DISTINCT block that contributes no output column
// and is the many side of its join is probed for a first match after the
// join order, and the block's DISTINCT goes when Algorithm 1 proves the
// block without it duplicate-free.
func TestExistenceOnlyRuleB(t *testing.T) {
	opts := Options{ApplyRewrites: true}
	ex8 := `SELECT ALL S.SNO, S.SNAME FROM SUPPLIER S
		WHERE EXISTS (SELECT * FROM PARTS P WHERE P.SNO = S.SNO AND P.PNO >= :K AND P.PNAME <> 'x')`
	hosts := map[string]value.Value{"K": value.Int(3)}
	res := runBoth(t, opts, ex8, hosts)
	for _, want := range []string{
		"join order: S, P (as written)",
		"IndexJoin(P via PARTS_SNO = (S.SNO), first match where P.PNO >= :K AND P.PNAME <> 'x')",
		"existence-only P: first match; without it DISTINCT is redundant: key of S (S.SNO) is bound",
	} {
		if !hasPlanLine(res, want) {
			t.Errorf("plan missing %q:\n%s", want, planText(res))
		}
	}
	if hasPlanLine(res, "Distinct") || res.Stats.RowsSorted != 0 || res.Stats.IndexSeeks != 60 ||
		res.Stats.RowsScanned != 60+60*3 || len(res.Rewrites) != 1 {
		t.Errorf("first-match probe: %s, rewrites %v\n%s", res.Stats.String(), res.Rewrites, planText(res))
	}

	// The written join is the same plan; without the rewrites' analyzer
	// the DISTINCT stays, above the probe.
	joined := `SELECT DISTINCT S.SNO, S.SNAME FROM SUPPLIER S, PARTS P
		WHERE P.SNO = S.SNO AND P.PNO >= :K AND P.PNAME <> 'x'`
	res = runBoth(t, opts, joined, hosts)
	if !hasPlanLine(res, "first match") || hasPlanLine(res, "Distinct") {
		t.Errorf("written DISTINCT join:\n%s", planText(res))
	}
	res = runBoth(t, Options{}, joined, hosts)
	if !hasPlanLine(res, "existence-only P: first match; DISTINCT still removes the other duplicates") ||
		!hasPlanLine(res, "DistinctHash") {
		t.Errorf("written DISTINCT join, no rewrites:\n%s", planText(res))
	}
	// So it does when the rest of the block has duplicates of its own.
	res = runBoth(t, opts, `SELECT DISTINCT S.SNAME FROM SUPPLIER S, PARTS P
		WHERE P.SNO = S.SNO AND P.PNO >= :K AND P.PNAME <> 'x'`, hosts)
	if !hasPlanLine(res, "first match; DISTINCT still removes") || !hasPlanLine(res, "DistinctHash") {
		t.Errorf("duplicate names:\n%s", planText(res))
	}

	for what, src := range map[string]string{
		"the block is not DISTINCT": `SELECT ALL S.SNO FROM SUPPLIER S, PARTS P
			WHERE P.SNO = S.SNO AND P.PNO >= 3`,
		"P contributes a column": `SELECT DISTINCT S.SNO, P.PNO FROM SUPPLIER S, PARTS P
			WHERE P.SNO = S.SNO AND P.PNO >= 3`,
		"P is a unique probe": `SELECT DISTINCT S.SNO FROM SUPPLIER S, PARTS P
			WHERE P.SNO = S.SNO AND P.PNO = 3`,
		"P has an access path of its own": `SELECT DISTINCT S.SNO FROM SUPPLIER S, PARTS P
			WHERE P.SNO = S.SNO AND P.COLOR = 'RED'`,
		"a predicate on P beside the key is no equality": `SELECT DISTINCT S.SNO FROM SUPPLIER S, PARTS P
			WHERE P.SNO = S.SNO AND P.PNO < S.BUDGET`,
		"P equals columns of two tables": `SELECT DISTINCT S.SNO, A.ANO FROM SUPPLIER S, PARTS P, AGENTS A
			WHERE P.SNO = S.SNO AND P.PNO = A.ANO`,
		"no index leads with the correlation column": `SELECT DISTINCT S.SNO FROM SUPPLIER S, AGENTS A
			WHERE A.SNO = S.SNO AND A.ANAME <> 'x'`,
	} {
		if res := runBoth(t, opts, src, nil); hasPlanLine(res, "first match") {
			t.Errorf("%s, yet:\n%s", what, planText(res))
		}
	}

	// Two existence-only tables on one outer table: both probe, in
	// written order, after the join order.
	q, err := parser.ParseQuery(`SELECT DISTINCT S.SNO FROM PARTS P, SUPPLIER S, AGENTS A
		WHERE P.SNO = S.SNO AND A.SNO = S.SNO AND P.PNO >= 3 AND A.ANAME <> 'x'`)
	if err != nil {
		t.Fatal(err)
	}
	db := indexedDB(t)
	if _, err := db.MustTable("AGENTS").CreateOrderedIndex("AGENTS_SNO", "SNO"); err != nil {
		t.Fatal(err)
	}
	two, err := NewPlanner(db, opts).explained(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := NewPlanner(smallishDB(t), opts).Run(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !engine.MultisetEqual(plain.Rel, two.Rel) || !hasPlanLine(two, "join order: S, P, A (written: P, S, A)") ||
		!hasPlanLine(two, "IndexJoin(A via AGENTS_SNO = (S.SNO), first match where A.ANAME <> 'x')") ||
		!hasPlanLine(two, "IndexJoin(P via PARTS_SNO = (S.SNO), first match where P.PNO >= 3)") || hasPlanLine(two, "Distinct") {
		t.Errorf("two existence-only tables: %d rows against %d\n%s", two.Rel.Len(), plain.Rel.Len(), planText(two))
	}
}
