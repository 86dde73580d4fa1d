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
	plain, err := NewPlanner(plainDB, Options{}).Run(q, hosts)
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
