package core

import (
	"testing"

	"uniqopt/internal/catalog"
	"uniqopt/internal/sql/ast"
	"uniqopt/internal/sql/parser"
)

// checkCatalog builds tables whose CHECK constraints pin columns:
// CN has CHECK (A = 7) on a NOT NULL column (importable);
// CX has CHECK (B = 7) on a nullable column (must NOT be imported).
func checkCatalog(t *testing.T) *catalog.Catalog {
	t.Helper()
	c := catalog.New()
	for _, ddl := range []string{
		`CREATE TABLE CN (K INTEGER, A INTEGER NOT NULL, V INTEGER,
			PRIMARY KEY (K), UNIQUE (A), CHECK (A = 7))`,
		`CREATE TABLE CX (K INTEGER, B INTEGER, V INTEGER,
			PRIMARY KEY (K), UNIQUE (B), CHECK (B = 7))`,
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

func TestCheckImportBindsNotNullColumn(t *testing.T) {
	cat := checkCatalog(t)
	plain := NewAnalyzer(cat)
	ext := &Analyzer{Cat: cat, Opts: Options{UseCheckConstraints: true}}

	// CHECK (A = 7) with A NOT NULL and UNIQUE: at most one row exists,
	// so even SELECT V is duplicate-free.
	src := "SELECT CN.V FROM CN CN"
	s := mustSelect(t, src)
	pv, err := plain.AnalyzeSelect(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	if pv.Unique {
		t.Error("paper-literal ignores CHECKs: should be NO")
	}
	ev, err := ext.AnalyzeSelect(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !ev.Unique {
		t.Errorf("CHECK import should bind A and cover the UNIQUE key: %v", ev)
	}
	// Soundness: the exact checker (which honors CHECKs) agrees.
	d, err := DefaultDomains(cat, s)
	if err != nil {
		t.Fatal(err)
	}
	exact, w, err := ext.ExactUniqueness(s, d, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if !exact {
		t.Fatalf("CHECK import contradicted by exact check: %v", w)
	}
}

func TestCheckImportRefusesNullableColumn(t *testing.T) {
	cat := checkCatalog(t)
	ext := &Analyzer{Cat: cat, Opts: Options{UseCheckConstraints: true}}
	// CHECK (B = 7) on nullable B passes for B NULL (⌈P⌉), so two rows
	// (B=7) and (B=NULL) can coexist — binding B would be unsound.
	src := "SELECT CX.V FROM CX CX"
	s := mustSelect(t, src)
	ev, err := ext.AnalyzeSelect(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Unique {
		t.Fatal("nullable CHECK column must not be imported (unsound)")
	}
	// And indeed the exact checker can produce duplicates.
	d, err := DefaultDomains(cat, s)
	if err != nil {
		t.Fatal(err)
	}
	exact, _, err := ext.ExactUniqueness(s, d, 5_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if exact {
		t.Error("expected duplicates to be constructible for the nullable-CHECK table")
	}
}

func TestCheckImportFlippedAndNonEquality(t *testing.T) {
	c := catalog.New()
	st, err := parser.ParseStatement(`CREATE TABLE F (K INTEGER, A INTEGER NOT NULL,
		B INTEGER NOT NULL, PRIMARY KEY (K), UNIQUE (A),
		CHECK (7 = A), CHECK (B > 3))`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.DefineFromAST(st.(*ast.CreateTable)); err != nil {
		t.Fatal(err)
	}
	ext := &Analyzer{Cat: c, Opts: Options{UseCheckConstraints: true}}
	v, err := ext.AnalyzeSelect(mustSelect(t, "SELECT F.B FROM F F"), nil)
	if err != nil {
		t.Fatal(err)
	}
	// 7 = A (flipped) binds A → UNIQUE (A) covered.
	if !v.Unique {
		t.Errorf("flipped CHECK equality should bind: %v", v)
	}
	// The non-equality CHECK (B > 3) must contribute nothing; B is
	// not in V unless projected.
	found := false
	for _, b := range v.Bound {
		if b == "F.A" {
			found = true
		}
	}
	if !found {
		t.Errorf("V should contain F.A: %v", v.Bound)
	}
}
