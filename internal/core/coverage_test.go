package core

import (
	"strings"
	"testing"

	"uniqopt/internal/catalog"
	"uniqopt/internal/sql/ast"
	"uniqopt/internal/sql/parser"
)

func TestAnalyzeQuerySetOps(t *testing.T) {
	a := analyzer(t)
	// DISTINCT set operations are unique by definition.
	q, _ := parser.ParseQuery(`SELECT ALL P.SNO FROM PARTS P
		INTERSECT SELECT ALL A.SNO FROM AGENTS A`)
	v, err := a.AnalyzeQuery(q)
	if err != nil || !v.Unique {
		t.Errorf("INTERSECT verdict = %v, %v", v, err)
	}
	// EXCEPT ALL inherits the left operand's uniqueness.
	q, _ = parser.ParseQuery(`SELECT ALL S.SNO FROM SUPPLIER S
		EXCEPT ALL SELECT ALL A.SNO FROM AGENTS A`)
	v, err = a.AnalyzeQuery(q)
	if err != nil || !v.Unique {
		t.Errorf("EXCEPT ALL (unique left) verdict = %v, %v", v, err)
	}
	q, _ = parser.ParseQuery(`SELECT ALL P.SNO FROM PARTS P
		EXCEPT ALL SELECT ALL S.SNO FROM SUPPLIER S`)
	v, err = a.AnalyzeQuery(q)
	if err != nil || v.Unique {
		t.Errorf("EXCEPT ALL (duplicating left) verdict = %v, %v", v, err)
	}
	// INTERSECT ALL: unique when either side is.
	q, _ = parser.ParseQuery(`SELECT ALL P.SNO FROM PARTS P
		INTERSECT ALL SELECT ALL S.SNO FROM SUPPLIER S`)
	v, err = a.AnalyzeQuery(q)
	if err != nil || !v.Unique {
		t.Errorf("INTERSECT ALL (unique right) verdict = %v, %v", v, err)
	}
	q, _ = parser.ParseQuery(`SELECT ALL P.SNO FROM PARTS P
		INTERSECT ALL SELECT ALL A.SNO FROM AGENTS A`)
	v, err = a.AnalyzeQuery(q)
	if err != nil || v.Unique {
		t.Errorf("INTERSECT ALL (neither unique) verdict = %v, %v", v, err)
	}
	// Plain select path.
	q, _ = parser.ParseQuery(`SELECT S.SNO FROM SUPPLIER S`)
	if _, err := a.AnalyzeQuery(q); err != nil {
		t.Error(err)
	}
}

func TestVerdictAndWitnessString(t *testing.T) {
	a := analyzer(t)
	v, err := a.AnalyzeSelect(mustSelect(t, "SELECT S.SNO FROM SUPPLIER S"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(v.String(), "UNIQUE") {
		t.Errorf("verdict string = %q", v.String())
	}
	v, _ = a.AnalyzeSelect(mustSelect(t, "SELECT S.SNAME FROM SUPPLIER S"), nil)
	if !strings.Contains(v.String(), "NOT PROVEN") {
		t.Errorf("verdict string = %q", v.String())
	}
	w := &Witness{}
	if w.String() == "" {
		t.Error("witness string must be non-empty")
	}
}

func TestInToExistsDirect(t *testing.T) {
	a := analyzer(t)
	// Applies to a positive IN.
	s := mustSelect(t, `SELECT S.SNAME FROM SUPPLIER S
		WHERE S.SNO IN (SELECT P.SNO FROM PARTS P WHERE P.COLOR = 'RED')`)
	ap, err := a.InToExists(s)
	if err != nil {
		t.Fatal(err)
	}
	if ap == nil || ap.Rule != RuleInToExists {
		t.Fatalf("rewrite = %v", ap)
	}
	out := ap.Query.(*ast.Select)
	conj := ast.Conjuncts(out.Where)
	ex, ok := conj[len(conj)-1].(*ast.Exists)
	if !ok {
		t.Fatalf("want EXISTS, got %q", out.Where.SQL())
	}
	if !strings.Contains(ex.Query.Where.SQL(), "P.SNO = S.SNO") {
		t.Errorf("membership correlation missing: %s", ex.Query.Where.SQL())
	}

	// Does not apply to NOT IN.
	s = mustSelect(t, `SELECT S.SNAME FROM SUPPLIER S
		WHERE S.SNO NOT IN (SELECT P.SNO FROM PARTS P)`)
	ap, err = a.InToExists(s)
	if err != nil || ap != nil {
		t.Errorf("NOT IN must not rewrite: %v, %v", ap, err)
	}
	// Does not apply without IN.
	s = mustSelect(t, `SELECT S.SNAME FROM SUPPLIER S WHERE S.SNO = 1`)
	ap, err = a.InToExists(s)
	if err != nil || ap != nil {
		t.Errorf("no IN: %v, %v", ap, err)
	}
	// Multi-column subquery is an error.
	s = mustSelect(t, `SELECT S.SNAME FROM SUPPLIER S
		WHERE S.SNO IN (SELECT P.SNO, P.PNO FROM PARTS P)`)
	if _, err := a.InToExists(s); err == nil {
		t.Error("multi-column IN subquery should fail")
	}
	// Star over a multi-column table is also an error.
	s = mustSelect(t, `SELECT S.SNAME FROM SUPPLIER S
		WHERE S.SNO IN (SELECT * FROM PARTS P)`)
	if _, err := a.InToExists(s); err == nil {
		t.Error("star IN subquery over a wide table should fail")
	}
}

// Suggest paths for InToExists and error propagation.
func TestSuggestIncludesInToExists(t *testing.T) {
	a := analyzer(t)
	aps, err := a.Suggest(mustSelect(t, `SELECT S.SNAME FROM SUPPLIER S
		WHERE S.SNO IN (SELECT P.SNO FROM PARTS P)`))
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, ap := range aps {
		if ap.Rule == RuleInToExists {
			found = true
		}
	}
	if !found {
		t.Errorf("Suggest missed in-to-exists: %v", aps)
	}
}

// Alias collisions during subquery merging exercise renameQualifiers
// and freshAlias: the subquery uses the same correlation name as the
// outer block.
func TestSubqueryMergeAliasCollision(t *testing.T) {
	a := analyzer(t)
	s := mustSelect(t, `SELECT ALL P.PNO FROM PARTS P
		WHERE EXISTS (SELECT * FROM PARTS P WHERE P.SNO = 1 AND P.PNO = 1)`)
	ap, err := a.SubqueryToJoin(s)
	if err != nil {
		t.Fatal(err)
	}
	if ap == nil {
		t.Fatal("merge should apply (subquery binds the full PARTS key)")
	}
	out := ap.Query.(*ast.Select)
	if len(out.From) != 2 {
		t.Fatalf("FROM = %v", out.From)
	}
	if out.From[0].Name() == out.From[1].Name() {
		t.Errorf("alias collision not resolved: %v", out.From)
	}
	// The renamed alias must be used in the merged predicate.
	renamed := out.From[1].Name()
	if !strings.Contains(out.Where.SQL(), renamed+".SNO = 1") {
		t.Errorf("renamed qualifier missing from predicate: %s", out.Where.SQL())
	}
}

// QualifyExpr must handle every expression form.
func TestQualifyExprForms(t *testing.T) {
	a := analyzer(t)
	s := mustSelect(t, `SELECT S.SNO FROM SUPPLIER S WHERE
		SNO BETWEEN 1 AND 9 AND
		SCITY IN ('Toronto') AND
		SNAME IS NOT NULL AND
		NOT (BUDGET = 0) AND
		(STATUS = 'Active' OR STATUS = 'Inactive') AND
		TRUE AND
		SNO IN (SELECT P.SNO FROM PARTS P WHERE P.SNO = SNO)`)
	scope, err := catalog.NewScope(a.Cat, s.From, nil)
	if err != nil {
		t.Fatal(err)
	}
	q, err := a.QualifyExpr(s.Where, scope)
	if err != nil {
		t.Fatal(err)
	}
	sql := q.SQL()
	for _, want := range []string{"S.SNO BETWEEN", "S.SCITY IN", "S.SNAME IS NOT NULL",
		"NOT (S.BUDGET = 0)", "S.STATUS = 'Active'", "S.SNO IN (SELECT"} {
		if !strings.Contains(sql, want) {
			t.Errorf("qualified form missing %q:\n%s", want, sql)
		}
	}
	// Unresolvable reference errors out.
	bad, _ := parser.ParseExpr("NOPE = 1")
	if _, err := a.QualifyExpr(bad, scope); err == nil {
		t.Error("unknown column should fail")
	}
}

func TestFreshAlias(t *testing.T) {
	taken := map[string]bool{"P": true, "P1": true}
	if got := freshAlias("P", taken); got != "P2" {
		t.Errorf("freshAlias = %q", got)
	}
	if got := freshAlias("Q", taken); got != "Q" {
		t.Errorf("freshAlias = %q", got)
	}
}
