package plan

import (
	"strings"
	"testing"

	"uniqopt/internal/core"
	"uniqopt/internal/engine"
	"uniqopt/internal/sql/ast"
	"uniqopt/internal/sql/parser"
	"uniqopt/internal/storage"
	"uniqopt/internal/value"
	"uniqopt/internal/workload"
)

// IN-subquery queries run identically through the oracle, the
// baseline planner, and the rewriting planner.
func TestInSubqueryEquivalence(t *testing.T) {
	db := smallDB(t)
	srcs := []string{
		// Uncorrelated IN.
		`SELECT S.SNAME FROM SUPPLIER S
			WHERE S.SNO IN (SELECT P.SNO FROM PARTS P WHERE P.COLOR = 'RED')`,
		// Correlated IN (Kim's type-J shape).
		`SELECT S.SNO FROM SUPPLIER S
			WHERE S.SNO IN (SELECT P.SNO FROM PARTS P WHERE P.SNO = S.SNO AND P.PNO = 2)`,
		// IN over a constant membership.
		`SELECT P.PNO, P.PNAME FROM PARTS P
			WHERE P.SNO IN (SELECT S.SNO FROM SUPPLIER S WHERE S.SCITY = 'Toronto')`,
		// NOT IN stays un-rewritten but must still execute correctly.
		`SELECT S.SNO FROM SUPPLIER S
			WHERE S.SNO NOT IN (SELECT P.SNO FROM PARTS P WHERE P.COLOR = 'RED')`,
	}
	for _, src := range srcs {
		runThreeWays(t, db, src, nil)
	}
}

// The rewrite chain: IN → EXISTS → (DISTINCT) join, all semantics
// preserving.
func TestInToExistsChain(t *testing.T) {
	db := smallDB(t)
	src := `SELECT S.SNO, S.SNAME FROM SUPPLIER S
		WHERE S.SNO IN (SELECT P.SNO FROM PARTS P WHERE P.COLOR = 'RED')`
	q, err := parser.ParseQuery(src)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := NewPlanner(db, Options{ApplyRewrites: true}).Run(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	rules := strings.Join(rewriteNames(opt), ",")
	if !strings.Contains(rules, string(core.RuleInToExists)) {
		t.Fatalf("IN rewrite missing: %s", rules)
	}
	if !strings.Contains(rules, string(core.RuleSubqueryToDistinct)) {
		t.Errorf("EXISTS should chain into a DISTINCT join: %s", rules)
	}
	if opt.Stats.SubqueryRuns != 0 {
		t.Errorf("fully unnested plan should not probe subqueries: %s", opt.Stats.String())
	}
	ref, err := reference(db, q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !engine.MultisetEqual(ref, opt.Rel) {
		t.Error("IN unnesting changed semantics")
	}
}

// NOT IN with a NULL-producing subquery: the 3VL trap. NOT IN must
// reject every row (membership is Unknown), while a naive NOT EXISTS
// rewrite would keep some — the reason InToExists refuses negated
// predicates.
func TestNotInNullTrap(t *testing.T) {
	cat := workload.BenchCatalog()
	db := storage.NewDB(cat)
	for _, sno := range []int64{1, 2} {
		if err := db.Insert("SUPPLIER", value.Row{value.Int(sno), value.String_("s"),
			value.String_("Toronto"), value.Int(1), value.String_("Active")}); err != nil {
			t.Fatal(err)
		}
	}
	// One part with NULL OEM-PNO, one with OEM-PNO = 1.
	if err := db.Insert("PARTS", value.Row{value.Int(1), value.Int(1),
		value.String_("a"), value.Null, value.String_("RED")}); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("PARTS", value.Row{value.Int(1), value.Int(2),
		value.String_("b"), value.Int(1), value.String_("RED")}); err != nil {
		t.Fatal(err)
	}

	// SNO 2 is not in {NULL, 1}: membership is Unknown (the NULL could
	// be 2), so NOT IN rejects it; SNO 1 matches, NOT IN rejects it
	// too. The correct answer is zero rows.
	src := `SELECT S.SNO FROM SUPPLIER S
		WHERE S.SNO NOT IN (SELECT P.OEM-PNO FROM PARTS P)`
	base, opt := runThreeWays(t, db, src, nil)
	if base.Rel.Len() != 0 || opt.Rel.Len() != 0 {
		t.Fatalf("NOT IN over a NULL-producing subquery must be empty: base=%d opt=%d",
			base.Rel.Len(), opt.Rel.Len())
	}
	// The contrast: NOT EXISTS keeps SNO 2 (there is no OEM-PNO row
	// equal to 2 — NULL never equals anything in WHERE).
	contrast := `SELECT S.SNO FROM SUPPLIER S
		WHERE NOT EXISTS (SELECT * FROM PARTS P WHERE P.OEM-PNO = S.SNO)`
	ref, err := reference(db, mustParse(t, contrast), nil)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Len() != 1 || ref.Rows[0][0].AsInt() != 2 {
		t.Fatalf("NOT EXISTS contrast = %v (the two forms must differ)", ref)
	}
	// And the optimizer must not have converted the NOT IN.
	for _, ap := range opt.Rewrites {
		if ap.Rule == core.RuleInToExists {
			t.Fatal("NOT IN must not be converted to NOT EXISTS")
		}
	}
}

// Positive IN whose subquery produces NULLs: conversion is still exact
// under the WHERE clause's false interpretation.
func TestPositiveInWithNullsStillExact(t *testing.T) {
	cat := workload.BenchCatalog()
	db := storage.NewDB(cat)
	for _, sno := range []int64{1, 2} {
		if err := db.Insert("SUPPLIER", value.Row{value.Int(sno), value.String_("s"),
			value.String_("Toronto"), value.Int(1), value.String_("Active")}); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Insert("PARTS", value.Row{value.Int(1), value.Int(1),
		value.String_("a"), value.Null, value.String_("RED")}); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("PARTS", value.Row{value.Int(2), value.Int(1),
		value.String_("b"), value.Int(1), value.String_("RED")}); err != nil {
		t.Fatal(err)
	}
	src := `SELECT S.SNO FROM SUPPLIER S
		WHERE S.SNO IN (SELECT P.OEM-PNO FROM PARTS P)`
	base, opt := runThreeWays(t, db, src, nil)
	// Only SNO 1 matches (OEM values are {NULL, 1}).
	if base.Rel.Len() != 1 || opt.Rel.Len() != 1 {
		t.Fatalf("rows: base=%d opt=%d, want 1", base.Rel.Len(), opt.Rel.Len())
	}
}

func mustParse(t *testing.T, src string) ast.Query {
	t.Helper()
	q, err := parser.ParseQuery(src)
	if err != nil {
		t.Fatal(err)
	}
	return q
}
