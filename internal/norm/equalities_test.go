package norm

import (
	"fmt"
	"strings"
	"testing"

	"uniqopt/internal/catalog"
	"uniqopt/internal/sql/ast"
	"uniqopt/internal/value"
)

// testCatalog builds the paper's SUPPLIER/PARTS schema.
func testCatalog(t *testing.T) *catalog.Catalog {
	t.Helper()
	c := catalog.New()
	sup, err := catalog.NewTable("SUPPLIER", []catalog.Column{
		{Name: "SNO", Type: value.KindInt},
		{Name: "SNAME", Type: value.KindString},
		{Name: "SCITY", Type: value.KindString},
		{Name: "BUDGET", Type: value.KindInt},
		{Name: "STATUS", Type: value.KindString},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sup.AddKey(true, "SNO"); err != nil {
		t.Fatal(err)
	}
	parts, err := catalog.NewTable("PARTS", []catalog.Column{
		{Name: "SNO", Type: value.KindInt},
		{Name: "PNO", Type: value.KindInt},
		{Name: "PNAME", Type: value.KindString},
		{Name: "OEM-PNO", Type: value.KindInt},
		{Name: "COLOR", Type: value.KindString},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := parts.AddKey(true, "SNO", "PNO"); err != nil {
		t.Fatal(err)
	}
	if err := parts.AddKey(false, "OEM-PNO"); err != nil {
		t.Fatal(err)
	}
	for _, tb := range []*catalog.Table{sup, parts} {
		if err := c.Define(tb); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

func twoTableScope(t *testing.T) *catalog.Scope {
	t.Helper()
	c := testCatalog(t)
	s, err := catalog.NewScope(c, []ast.TableRef{
		{Table: "SUPPLIER", Alias: "S"},
		{Table: "PARTS", Alias: "P"},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestClassifyType1(t *testing.T) {
	s := twoTableScope(t)
	cases := []struct {
		src string
		col string
	}{
		{"P.SNO = 7", "P.SNO"},
		{"7 = P.SNO", "P.SNO"},
		{"P.SNO = :SUPPLIER-NO", "P.SNO"},
		{"COLOR = 'RED'", "P.COLOR"}, // unqualified, unambiguous
	}
	for _, c := range cases {
		a := Classify(expr(t, c.src), s)
		if a.Kind != EqConst || a.Col != c.col {
			t.Errorf("Classify(%q) = %+v, want EqConst %s", c.src, a, c.col)
		}
	}
}

func TestClassifyType2(t *testing.T) {
	s := twoTableScope(t)
	a := Classify(expr(t, "S.SNO = P.SNO"), s)
	if a.Kind != EqCol || a.Col != "S.SNO" || a.Col2 != "P.SNO" {
		t.Errorf("Classify = %+v", a)
	}
}

func TestClassifyOther(t *testing.T) {
	s := twoTableScope(t)
	others := []string{
		"S.SNO < 10",          // non-equality
		"S.SNO <> 3",          // non-equality
		"S.SNO = NULL",        // NULL never binds
		"S.SNAME IS NOT NULL", // negated IS NULL binds nothing
		"5 = 5",               // no columns
		":A = :B",             // no columns
		"EXISTS (SELECT * FROM PARTS P2 WHERE P2.SNO = 1)",
	}
	for _, src := range others {
		if a := Classify(expr(t, src), s); a.Kind != Other {
			t.Errorf("Classify(%q) = %v, want Other", src, a.Kind)
		}
	}
}

func TestClassifyIsNull(t *testing.T) {
	s := twoTableScope(t)
	a := Classify(expr(t, "P.OEM-PNO IS NULL"), s)
	if a.Kind != IsNullAtom || a.Col != "P.OEM-PNO" {
		t.Errorf("Classify = %+v", a)
	}
}

func TestClassifyCorrelatedEquality(t *testing.T) {
	// Inside a subquery over PARTS with SUPPLIER in the outer scope,
	// S.SNO = P.SNO is Type 1 for the inner block: S.SNO is constant.
	c := testCatalog(t)
	outer, err := catalog.NewScope(c, []ast.TableRef{{Table: "SUPPLIER", Alias: "S"}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	inner, err := catalog.NewScope(c, []ast.TableRef{{Table: "PARTS", Alias: "P"}}, outer)
	if err != nil {
		t.Fatal(err)
	}
	a := Classify(expr(t, "S.SNO = P.SNO"), inner)
	if a.Kind != EqConst || a.Col != "P.SNO" {
		t.Errorf("correlated Classify = %+v, want EqConst P.SNO", a)
	}
	a = Classify(expr(t, "P.PNO = S.SNO"), inner)
	if a.Kind != EqConst || a.Col != "P.PNO" {
		t.Errorf("correlated Classify (flipped) = %+v", a)
	}
}

func TestExtractPaperExample5(t *testing.T) {
	// WHERE P.SNO = :SUPPLIER-NO AND S.SNO = P.SNO (Example 4/5).
	s := twoTableScope(t)
	e := expr(t, "P.SNO = :SUPPLIER-NO AND S.SNO = P.SNO")
	eq := Extract(e, s, ExtractOptions{})
	if _, ok := eq.ConstCols["P.SNO"]; !ok {
		t.Error("P.SNO should be bound to a constant")
	}
	if len(eq.Pairs) != 1 || eq.Pairs[0] != [2]string{"S.SNO", "P.SNO"} {
		t.Errorf("pairs = %v", eq.Pairs)
	}
	if eq.Dropped != 0 {
		t.Errorf("dropped = %d, want 0", eq.Dropped)
	}

	// Line 13-16 trace: V = {S.SNO, S.SNAME, P.PNO, P.PNAME} ∪ {P.SNO},
	// closure adds nothing new beyond S.SNO (already in).
	v := eq.BoundColumns([]string{"S.SNO", "S.SNAME", "P.PNO", "P.PNAME"})
	for _, want := range []string{"S.SNO", "S.SNAME", "P.PNO", "P.PNAME", "P.SNO"} {
		if !v[want] {
			t.Errorf("V missing %s; V = %v", want, SortedColumns(v))
		}
	}
	if len(v) != 5 {
		t.Errorf("V = %v, want exactly 5 members", SortedColumns(v))
	}
}

func TestExtractTransitiveClosure(t *testing.T) {
	// S.SNO = P.SNO and P.SNO = P.PNO: from A = {S.SNO} the closure
	// must reach P.SNO then P.PNO.
	s := twoTableScope(t)
	e := expr(t, "S.SNO = P.SNO AND P.SNO = P.PNO")
	eq := Extract(e, s, ExtractOptions{})
	v := eq.BoundColumns([]string{"S.SNO"})
	if !v["P.SNO"] || !v["P.PNO"] {
		t.Errorf("closure incomplete: %v", SortedColumns(v))
	}
}

func TestExtractDropsDisjunctions(t *testing.T) {
	// X = 5 OR X = 10 must be dropped (Algorithm 1 line 8).
	s := twoTableScope(t)
	e := expr(t, "(S.SNO = 5 OR S.SNO = 10) AND S.SNAME = 'W'")
	eq := Extract(e, s, ExtractOptions{})
	if _, bound := eq.ConstCols["S.SNO"]; bound {
		t.Error("disjunctively constrained column must not be bound")
	}
	if _, bound := eq.ConstCols["S.SNAME"]; !bound {
		t.Error("the conjunct S.SNAME='W' must still bind")
	}
	if eq.Dropped != 1 {
		t.Errorf("dropped = %d, want 1", eq.Dropped)
	}
}

func TestExtractDropsNonEqualities(t *testing.T) {
	s := twoTableScope(t)
	e := expr(t, "S.SNO >= 1 AND S.SNO <= 499 AND S.SNAME = 'W'")
	eq := Extract(e, s, ExtractOptions{})
	if len(eq.ConstCols) != 1 {
		t.Errorf("ConstCols = %v", eq.ConstCols)
	}
	if eq.Dropped != 2 {
		t.Errorf("dropped = %d, want 2", eq.Dropped)
	}
}

func TestExtractBetweenDegenerate(t *testing.T) {
	// BETWEEN expands to >= and <=; no equality information results,
	// even for the degenerate X BETWEEN 5 AND 5 (kept conservative).
	s := twoTableScope(t)
	eq := Extract(expr(t, "S.SNO BETWEEN 5 AND 5"), s, ExtractOptions{})
	if len(eq.ConstCols) != 0 {
		t.Errorf("ConstCols = %v", eq.ConstCols)
	}
}

func TestExtractIsNullExtension(t *testing.T) {
	s := twoTableScope(t)
	e := expr(t, "P.OEM-PNO IS NULL AND S.SNO = P.SNO")
	off := Extract(e, s, ExtractOptions{})
	if len(off.NullCols) != 0 || off.Dropped != 1 {
		t.Errorf("without extension: NullCols=%v dropped=%d", off.NullCols, off.Dropped)
	}
	on := Extract(e, s, ExtractOptions{BindIsNull: true})
	if !on.NullCols["P.OEM-PNO"] || on.Dropped != 0 {
		t.Errorf("with extension: NullCols=%v dropped=%d", on.NullCols, on.Dropped)
	}
	v := on.BoundColumns(nil)
	if !v["P.OEM-PNO"] {
		t.Error("IS NULL column should be bound")
	}
}

func TestExtractSelfEqualityIgnored(t *testing.T) {
	s := twoTableScope(t)
	eq := Extract(expr(t, "S.SNO = S.SNO"), s, ExtractOptions{})
	if len(eq.Pairs) != 0 {
		t.Errorf("self equality should produce no pair: %v", eq.Pairs)
	}
}

func TestExtractNilAndTooLarge(t *testing.T) {
	s := twoTableScope(t)
	eq := Extract(nil, s, ExtractOptions{})
	if len(eq.ConstCols) != 0 || len(eq.Pairs) != 0 {
		t.Error("nil predicate should extract nothing")
	}
	// An OR of n two-atom conjunctions distributes into 2^n clauses:
	// eight reach the cap exactly, nine exceed it.
	disjunction := func(n int) string {
		terms := make([]string, n)
		for i := range terms {
			terms[i] = fmt.Sprintf("(S.SNO = %d AND S.SNAME = 'n%d')", i, i)
		}
		return strings.Join(terms, " OR ")
	}
	if eq = Extract(expr(t, disjunction(8)), s, ExtractOptions{}); eq.Dropped <= 0 {
		t.Errorf("a CNF of %d clauses is within the cap: %+v", DefaultMaxClauses, eq)
	}
	// Over the cap even the conjunct that would bind S.SNO is lost.
	eq = Extract(expr(t, "S.SNO = 1 AND ("+disjunction(9)+")"), s, ExtractOptions{})
	if len(eq.ConstCols) != 0 || eq.Dropped != -1 {
		t.Errorf("over-cap extraction should contribute nothing: %+v", eq)
	}
}

func TestAtomKindString(t *testing.T) {
	if EqConst.String() == "" || EqCol.String() == "" ||
		IsNullAtom.String() == "" || Other.String() == "" {
		t.Error("AtomKind strings must be non-empty")
	}
}
