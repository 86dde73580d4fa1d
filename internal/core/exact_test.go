package core

import (
	"math/rand"
	"strings"
	"testing"

	"uniqopt/internal/catalog"
	"uniqopt/internal/sql/ast"
	"uniqopt/internal/sql/parser"
	"uniqopt/internal/value"
	"uniqopt/internal/workload"
)

func exactCheck(t *testing.T, cat *catalog.Catalog, src string) (bool, *Witness) {
	t.Helper()
	a := NewAnalyzer(cat)
	s := mustSelect(t, src)
	d, err := DefaultDomains(cat, s)
	if err != nil {
		t.Fatal(err)
	}
	u, w, err := a.ExactUniqueness(s, d, 1_000_000)
	if err != nil {
		t.Fatalf("ExactUniqueness(%q): %v", src, err)
	}
	return u, w
}

func TestExactUniqueProjectingKey(t *testing.T) {
	cat := workload.SmallCatalog()
	u, _ := exactCheck(t, cat, "SELECT R.K, R.X FROM R R")
	if !u {
		t.Error("projecting the key must be unique")
	}
}

func TestExactDuplicatesWithoutKey(t *testing.T) {
	cat := workload.SmallCatalog()
	u, w := exactCheck(t, cat, "SELECT R.X FROM R R")
	if u {
		t.Fatal("projecting a non-key must admit duplicates")
	}
	if w == nil {
		t.Fatal("witness must be provided")
	}
	// Witness rows agree on X but differ on K.
	if !value.NullEq(w.R1["R.X"], w.R2["R.X"]) {
		t.Errorf("witness rows disagree on projection: %v", w)
	}
	if value.NullEq(w.R1["R.K"], w.R2["R.K"]) {
		t.Errorf("witness rows should differ on the key: %v", w)
	}
}

func TestExactConstantBindsKey(t *testing.T) {
	cat := workload.SmallCatalog()
	u, _ := exactCheck(t, cat, "SELECT R.X FROM R R WHERE R.K = 1")
	if !u {
		t.Error("K bound to a constant forces at most one row")
	}
	u, _ = exactCheck(t, cat, "SELECT R.X FROM R R WHERE R.K = :H")
	if !u {
		t.Error("K bound to a host variable forces at most one row per execution")
	}
}

// The DISJUNCTION UNSOUNDNESS counterexample from the package comment:
// every DNF term binds K, yet duplicates are possible. The exact
// checker must find the witness, and Algorithm 1 must answer NO.
func TestExactDisjunctionCounterexample(t *testing.T) {
	cat := workload.SmallCatalog()
	src := "SELECT R.X FROM R R WHERE (R.X = 1 AND R.K = 1) OR (R.X = 1 AND R.K = 2)"
	u, w := exactCheck(t, cat, src)
	if u {
		t.Fatal("per-disjunct key binding is unsound; duplicates exist")
	}
	if w == nil || value.NullEq(w.R1["R.K"], w.R2["R.K"]) {
		t.Fatalf("witness should differ on K: %v", w)
	}
	// Algorithm 1 (which deletes disjunctive clauses) correctly says NO.
	a := NewAnalyzer(cat)
	v, err := a.AnalyzeSelect(mustSelect(t, src), nil)
	if err != nil {
		t.Fatal(err)
	}
	if v.Unique {
		t.Error("Algorithm 1 must answer NO on the counterexample")
	}
}

func TestExactJoinQuery(t *testing.T) {
	cat := workload.SmallCatalog()
	// Keys of both sides projected: unique.
	u, _ := exactCheck(t, cat, "SELECT R.K, S.K FROM R R, S S WHERE R.X = S.Z")
	if !u {
		t.Error("projecting both keys must be unique")
	}
	// Join transfers key binding: R.K = S.K and R.K projected.
	u, _ = exactCheck(t, cat, "SELECT R.K FROM R R, S S WHERE R.K = S.K")
	if !u {
		t.Error("equated keys: projecting one binds the other")
	}
	// No binding for S's key: duplicates possible.
	u, _ = exactCheck(t, cat, "SELECT R.K FROM R R, S S WHERE R.X = S.Z")
	if u {
		t.Error("S unconstrained: Cartesian-product duplicates exist")
	}
}

func TestExactErrorsAndCaps(t *testing.T) {
	cat := workload.SmallCatalog()
	a := NewAnalyzer(cat)
	s := mustSelect(t, "SELECT R.X FROM R R")
	d, _ := DefaultDomains(cat, s)
	if _, _, err := a.ExactUniqueness(s, d, 10); err != ErrTooManyCombinations {
		t.Errorf("cap should trip: %v", err)
	}
	// Missing domain.
	bad := Domains{Cols: map[string][]value.Value{}, Hosts: map[string][]value.Value{}}
	if _, _, err := a.ExactUniqueness(s, bad, 1000); err == nil {
		t.Error("missing column domain should fail")
	}
	// Table without key.
	s2 := mustSelect(t, "SELECT NK.A FROM NK NK")
	d2, _ := DefaultDomains(cat, s2)
	if _, _, err := a.ExactUniqueness(s2, d2, 100000); err == nil ||
		!strings.Contains(err.Error(), "candidate key") {
		t.Errorf("keyless table should fail: %v", err)
	}
	// EXISTS unsupported.
	s3 := mustSelect(t, "SELECT R.K FROM R R WHERE EXISTS (SELECT * FROM S S WHERE S.K = R.K)")
	if _, _, err := a.ExactUniqueness(s3, Domains{}, 1000); err == nil {
		t.Error("EXISTS should be rejected")
	}
}

// Property (E8's soundness core): whenever Algorithm 1 answers YES,
// the exact bounded-domain check agrees — for the paper's algorithm,
// for the analyzer every DB runs (all three extensions), and for that
// analyzer less each one extension. The converse may fail (Algorithm 1
// is only sufficient): incompleteness is counted, not failed. An
// extension fires on a query when the full analyzer proves it and the
// analyzer without that extension does not; each must fire, or the
// property says nothing about it.
func TestAlg1SoundAgainstExhaustive(t *testing.T) {
	cat := workload.SmallCatalog()
	configs := []struct {
		name string
		opts Options
	}{
		{"paper-literal", Options{}},
		{"all but key FDs", Options{BindIsNull: true, UseCheckConstraints: true}},
		{"all but IS NULL", Options{UseKeyFDs: true, UseCheckConstraints: true}},
		{"all but CHECK", Options{UseKeyFDs: true, BindIsNull: true}},
		{"all extensions", Options{UseKeyFDs: true, BindIsNull: true, UseCheckConstraints: true}},
	}
	full := len(configs) - 1 // the analyzer every DB runs
	yes := make([]int, len(configs))
	incomplete := make([]int, len(configs))
	fired := make([]int, len(configs)) // by the "all but" config that lacks it
	r := rand.New(rand.NewSource(99))
	const trials = 1000
	for trial := 0; trial < trials; trial++ {
		src := workload.RandomBlock(r)
		s, err := parser.ParseSelect(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		d, err := DefaultDomains(cat, s)
		if err != nil {
			t.Fatal(err)
		}
		exact, w, err := NewAnalyzer(cat).ExactUniqueness(s, d, 5_000_000)
		if err != nil {
			t.Fatalf("exact %q: %v", src, err)
		}
		unique := make([]bool, len(configs))
		for i, c := range configs {
			v, err := (&Analyzer{Cat: cat, Opts: c.opts}).AnalyzeSelect(s, nil)
			if err != nil {
				t.Fatalf("analyze %q: %v", src, err)
			}
			unique[i] = v.Unique
			switch {
			case v.Unique && !exact:
				t.Fatalf("UNSOUND (%s): Algorithm 1 says YES but duplicates exist\nquery: %s\nwitness: %v",
					c.name, src, w)
			case v.Unique:
				yes[i]++
			case exact:
				incomplete[i]++
			}
		}
		for i := 1; i < full; i++ {
			if unique[full] && !unique[i] {
				fired[i]++
			}
		}
	}
	for i, c := range configs {
		t.Logf("%-16s %d of %d YES, %d incomplete (exact-unique but unproven)", c.name, yes[i], trials, incomplete[i])
	}
	if yes[0] == 0 {
		t.Error("the generator produced no YES case; the property is vacuous")
	}
	for i := 1; i < full; i++ {
		extension := strings.TrimPrefix(configs[i].name, "all but ")
		t.Logf("%s decided %d verdicts", extension, fired[i])
		if fired[i] == 0 {
			t.Errorf("%s never decided a verdict; the property does not cover it", extension)
		}
	}
}

// The UseKeyFDs extension must answer YES at least as often as the
// paper-literal algorithm, and strictly more often on a pinned case.
func TestKeyFDExtensionDominates(t *testing.T) {
	cat := workload.SmallCatalog()
	plain := &Analyzer{Cat: cat}
	ext := &Analyzer{Cat: cat, Opts: Options{UseKeyFDs: true}}
	// R.K → R.X is a key FD; with R.K projected and R.X = S.K, the
	// extension binds S.K transitively. The paper-literal V does not:
	// R.X is neither projected nor constant.
	src := "SELECT R.K FROM R R, S S WHERE R.X = S.K"
	s := mustSelect(t, src)
	pv, err := plain.AnalyzeSelect(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := ext.AnalyzeSelect(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	if pv.Unique {
		t.Error("paper-literal Algorithm 1 should not prove this case")
	}
	if !ev.Unique {
		t.Error("key-FD extension should prove this case")
	}
	// And the extension is validated sound by the exact checker.
	d, _ := DefaultDomains(cat, s)
	exact, w, err := ext.ExactUniqueness(s, d, 5_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if !exact {
		t.Fatalf("extension verdict contradicted by exact check: %v", w)
	}
}

// BindIsNull extension: an IS NULL conjunct binds its column.
func TestBindIsNullExtension(t *testing.T) {
	// S.K IS NULL cannot qualify rows (K is primary key NOT NULL), so
	// use the nullable-key table U instead.
	cat := workload.SmallCatalog()
	plain := &Analyzer{Cat: cat}
	ext := &Analyzer{Cat: cat, Opts: Options{BindIsNull: true}}
	src := "SELECT U.X FROM U U WHERE U.K IS NULL"
	s := mustSelect(t, src)
	pv, _ := plain.AnalyzeSelect(s, nil)
	ev, err := ext.AnalyzeSelect(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	if pv.Unique {
		t.Error("paper-literal should not bind IS NULL")
	}
	if !ev.Unique {
		t.Error("BindIsNull should prove uniqueness: at most one row has K NULL (≐ key semantics)")
	}
	// Exact validation.
	d, _ := DefaultDomains(cat, s)
	exact, w, err := ext.ExactUniqueness(s, d, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if !exact {
		t.Fatalf("BindIsNull contradicted by exact check: %v", w)
	}
}

// CHECK constraints participate in the exact condition: a constraint
// pinning a column to a single value makes that column agree across
// all rows even though Algorithm 1 ignores it (incompleteness, not
// unsoundness).
func TestExactUsesCheckConstraints(t *testing.T) {
	c := catalog.New()
	st, _ := parser.ParseStatement(`CREATE TABLE C (K INTEGER, X INTEGER,
		PRIMARY KEY (K), CHECK (K = 1))`)
	if _, err := c.DefineFromAST(st.(*ast.CreateTable)); err != nil {
		t.Fatal(err)
	}
	a := NewAnalyzer(c)
	s := mustSelect(t, "SELECT C.X FROM C C")
	v, err := a.AnalyzeSelect(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	if v.Unique {
		t.Error("Algorithm 1 ignores CHECKs and should say NO")
	}
	d, _ := DefaultDomains(c, s)
	exact, w, err := a.ExactUniqueness(s, d, 100000)
	if err != nil {
		t.Fatal(err)
	}
	if !exact {
		t.Errorf("CHECK (K = 1) forces a single row; exact must say unique, witness %v", w)
	}
}

// exactT2 runs the exact Theorem-2 check on the EXISTS conjunct of a
// correlated query, over the query's default domains.
func exactT2(t *testing.T, src string, maxCombos int) (bool, *Witness, error) {
	t.Helper()
	cat := workload.SmallCatalog()
	s := mustSelect(t, src)
	d, err := DefaultDomains(cat, s)
	if err != nil {
		t.Fatal(err)
	}
	return exactAtMostOne(t, NewAnalyzer(cat), s.From, existsOf(t, s).Query, d, maxCombos)
}

// exactAtMostOne decides Theorem 2's condition over d: the exact check
// with the outer tables fixed and nothing projected.
func exactAtMostOne(t *testing.T, a *Analyzer, outerFrom []ast.TableRef, sub *ast.Select, d Domains, maxCombos int) (bool, *Witness, error) {
	t.Helper()
	outer, err := catalog.NewScope(a.Cat, outerFrom, nil)
	if err != nil {
		t.Fatal(err)
	}
	return a.exact(outer, sub, nil, d, maxCombos)
}

// existsOf is the last EXISTS conjunct of s.
func existsOf(t *testing.T, s *ast.Select) *ast.Exists {
	t.Helper()
	var ex *ast.Exists
	for _, c := range ast.Conjuncts(s.Where) {
		if e, ok := c.(*ast.Exists); ok {
			ex = e
		}
	}
	if ex == nil {
		t.Fatalf("query %s has no EXISTS", s.SQL())
	}
	return ex
}

func TestExactAtMostOneKeyBound(t *testing.T) {
	// Subquery binds S's full key via correlation: at most one match.
	for _, src := range []string{
		`SELECT R.K FROM R R WHERE EXISTS (SELECT * FROM S S WHERE S.K = R.K)`,
		`SELECT R.K FROM R R WHERE EXISTS (SELECT * FROM S S WHERE S.K = 1)`,
	} {
		u, w, err := exactT2(t, src, 50_000_000)
		if err != nil {
			t.Fatal(err)
		}
		if !u {
			t.Errorf("%s: a bound key must be at-most-one, witness %v", src, w)
		}
	}
}

func TestExactAtMostOneManyMatch(t *testing.T) {
	// Non-key correlation: many S rows can share Z.
	u, w, err := exactT2(t, `SELECT R.K FROM R R
		WHERE EXISTS (SELECT * FROM S S WHERE S.Z = R.X)`, 50_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if u || w == nil {
		t.Fatalf("non-key correlation must admit multiple matches: unique=%v witness=%v", u, w)
	}
	// The two witness rows are different S rows under one R row.
	if value.NullEq(w.R1["S.K"], w.R2["S.K"]) || !value.NullEqRows(
		value.Row{w.R1["R.K"], w.R1["R.X"]}, value.Row{w.R2["R.K"], w.R2["R.X"]}) {
		t.Errorf("witness rows should be two S rows under one R row: %v", w)
	}
}

func TestExactAtMostOneErrors(t *testing.T) {
	if _, _, err := exactT2(t, `SELECT R.K FROM R R
		WHERE EXISTS (SELECT * FROM S S WHERE S.K = 1)`, 5); err != ErrTooManyCombinations {
		t.Errorf("cap should trip: %v", err)
	}
	// Missing domains.
	cat := workload.SmallCatalog()
	sub := mustSelect(t, "SELECT * FROM S S WHERE S.K = 1")
	if _, _, err := exactAtMostOne(t, NewAnalyzer(cat), []ast.TableRef{{Table: "R", Alias: "R"}}, sub, Domains{}, 1000); err == nil {
		t.Error("missing domains should fail")
	}
	// Keyless subquery table.
	if _, _, err := exactT2(t, `SELECT R.K FROM R R
		WHERE EXISTS (SELECT * FROM NK NK WHERE NK.A = 1)`, 1_000_000); err == nil ||
		!strings.Contains(err.Error(), "candidate key") {
		t.Errorf("keyless table should fail: %v", err)
	}
}

// Property: whenever AtMostOneMatch answers YES, the exact Theorem-2
// check agrees — the analyzer's Theorem-2 condition is sound — on
// correlated EXISTS queries composed from two generated blocks.
func TestAtMostOneSoundAgainstExhaustive(t *testing.T) {
	cat := workload.SmallCatalog()
	a := NewAnalyzer(cat)
	r := rand.New(rand.NewSource(451))
	var yes, incomplete int
	const trials = 1000
	for trial := 0; trial < trials; trial++ {
		src := workload.RandomCorrelated(r)
		s, err := parser.ParseSelect(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		ex := existsOf(t, s)
		outer, err := catalog.NewScope(cat, s.From, nil)
		if err != nil {
			t.Fatal(err)
		}
		v, err := a.AtMostOneMatch(ex.Query, outer)
		if err != nil {
			t.Fatalf("analyze %q: %v", src, err)
		}
		d, err := DefaultDomains(cat, s)
		if err != nil {
			t.Fatal(err)
		}
		exact, w, err := exactAtMostOne(t, a, s.From, ex.Query, d, 5_000_000)
		if err != nil {
			t.Fatalf("exact %q: %v", src, err)
		}
		switch {
		case v.Unique && !exact:
			t.Fatalf("UNSOUND: AtMostOneMatch says YES but two matches exist\nquery: %s\nwitness: %v", src, w)
		case v.Unique:
			yes++
		case exact:
			incomplete++
		}
	}
	if yes == 0 {
		t.Error("the generator produced no YES case; the property is vacuous")
	}
	t.Logf("%d of %d YES, %d incomplete", yes, trials, incomplete)
}
