package core

import (
	"math/rand"
	"strings"
	"testing"

	"uniqopt/internal/catalog"
	"uniqopt/internal/sql/ast"
	"uniqopt/internal/sql/parser"
	"uniqopt/internal/value"
)

// smallCatalog: R(K, X, Y) with key K; S(K, Z) with key K; NK with no
// key; and a table for each case an analyzer extension reasons about —
// U's UNIQUE key is nullable, CK's key is composite, CN's CHECK pins a
// NOT NULL column of its key, CV's CHECK is on a nullable column (its
// UNIQUE key). Small enough for exhaustive domain enumeration.
func smallCatalog(t testing.TB) *catalog.Catalog {
	t.Helper()
	c := catalog.New()
	for _, ddl := range []string{
		`CREATE TABLE R (K INTEGER, X INTEGER, Y INTEGER, PRIMARY KEY (K))`,
		`CREATE TABLE S (K INTEGER, Z INTEGER, PRIMARY KEY (K))`,
		`CREATE TABLE NK (A INTEGER, B INTEGER)`, // no key
		`CREATE TABLE U (K INTEGER, X INTEGER, UNIQUE (K))`,
		`CREATE TABLE CK (A INTEGER, B INTEGER, Z INTEGER, PRIMARY KEY (A, B))`,
		`CREATE TABLE CN (K INTEGER, C INTEGER NOT NULL, W INTEGER, PRIMARY KEY (K, C), CHECK (C = 1))`,
		`CREATE TABLE CV (C INTEGER, W INTEGER, UNIQUE (C), CHECK (C = 1))`,
	} {
		st, err := parser.ParseStatement(ddl)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.DefineFromAST(st.(*ast.CreateTable)); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

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
	cat := smallCatalog(t)
	u, _ := exactCheck(t, cat, "SELECT R.K, R.X FROM R R")
	if !u {
		t.Error("projecting the key must be unique")
	}
}

func TestExactDuplicatesWithoutKey(t *testing.T) {
	cat := smallCatalog(t)
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
	cat := smallCatalog(t)
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
	cat := smallCatalog(t)
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
	cat := smallCatalog(t)
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
	cat := smallCatalog(t)
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

// queryTables are the keyed tables of smallCatalog and their columns:
// what randomQuery draws from.
var queryTables = []struct {
	name string
	cols []string
}{
	{"R", []string{"K", "X", "Y"}},
	{"S", []string{"K", "Z"}},
	{"U", []string{"K", "X"}},
	{"CK", []string{"A", "B", "Z"}},
	{"CN", []string{"K", "C", "W"}},
	{"CV", []string{"C", "W"}},
}

// randomQuery builds a random query over one or two different tables of
// queryTables: a projection of 1-3 of their columns and 0-3 conjuncts,
// each an equality with a constant, a host variable or a column, a
// range, IS NULL or IS NOT NULL.
func randomQuery(r *rand.Rand) string {
	picks := []int{r.Intn(len(queryTables))}
	if r.Intn(2) == 0 {
		j := r.Intn(len(queryTables) - 1)
		if j >= picks[0] {
			j++
		}
		picks = append(picks, j)
	}
	var cols, from []string
	for _, i := range picks {
		t := queryTables[i]
		from = append(from, t.name+" "+t.name)
		for _, c := range t.cols {
			cols = append(cols, t.name+"."+c)
		}
	}
	n := min(1+r.Intn(3), len(cols))
	proj := make([]string, 0, n)
	seen := map[string]bool{}
	for len(proj) < n {
		c := cols[r.Intn(len(cols))]
		if !seen[c] {
			seen[c] = true
			proj = append(proj, c)
		}
	}
	var conj []string
	for i := 0; i < r.Intn(4); i++ {
		a := cols[r.Intn(len(cols))]
		switch r.Intn(6) {
		case 0:
			conj = append(conj, a+" = 1")
		case 1:
			conj = append(conj, a+" = "+cols[r.Intn(len(cols))])
		case 2:
			conj = append(conj, a+" < 2")
		case 3:
			conj = append(conj, a+" = :H")
		case 4:
			conj = append(conj, a+" IS NULL")
		default:
			conj = append(conj, a+" IS NOT NULL")
		}
	}
	q := "SELECT " + strings.Join(proj, ", ") + " FROM " + strings.Join(from, ", ")
	if len(conj) > 0 {
		q += " WHERE " + strings.Join(conj, " AND ")
	}
	return q
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
	cat := smallCatalog(t)
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
		src := randomQuery(r)
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
	cat := smallCatalog(t)
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
	cat := smallCatalog(t)
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
