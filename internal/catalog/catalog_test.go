package catalog

import (
	"strings"
	"testing"

	"uniqopt/internal/sql/ast"
	"uniqopt/internal/sql/parser"
	"uniqopt/internal/value"
)

// paperCatalog builds Figure 1's schema from DDL text.
func paperCatalog(t *testing.T) *Catalog {
	t.Helper()
	c := New()
	ddl := []string{
		`CREATE TABLE SUPPLIER (
			SNO INTEGER, SNAME VARCHAR(30), SCITY VARCHAR(20),
			BUDGET INTEGER, STATUS VARCHAR(10),
			PRIMARY KEY (SNO),
			CHECK (SNO BETWEEN 1 AND 499),
			CHECK (SCITY IN ('Chicago', 'New York', 'Toronto')),
			CHECK (BUDGET <> 0 OR STATUS = 'Inactive'))`,
		`CREATE TABLE PARTS (
			SNO INTEGER, PNO INTEGER, PNAME VARCHAR(30),
			OEM-PNO INTEGER, COLOR VARCHAR(10),
			PRIMARY KEY (SNO, PNO),
			UNIQUE (OEM-PNO),
			CHECK (SNO BETWEEN 1 AND 499))`,
		`CREATE TABLE AGENTS (
			SNO INTEGER, ANO INTEGER, ANAME VARCHAR(30), ACITY VARCHAR(20),
			PRIMARY KEY (SNO, ANO))`,
	}
	for _, src := range ddl {
		st, err := parser.ParseStatement(src)
		if err != nil {
			t.Fatalf("parse DDL: %v", err)
		}
		if _, err := c.DefineFromAST(st.(*ast.CreateTable)); err != nil {
			t.Fatalf("define: %v", err)
		}
	}
	return c
}

func TestDefineFromASTSupplier(t *testing.T) {
	c := paperCatalog(t)
	s, ok := c.Table("supplier")
	if !ok {
		t.Fatal("SUPPLIER not found (lookup should be case-insensitive)")
	}
	if len(s.Columns) != 5 {
		t.Fatalf("got %d columns", len(s.Columns))
	}
	// Primary key column becomes NOT NULL.
	col, _ := s.Column("SNO")
	if !col.NotNull {
		t.Error("primary key column SNO must be NOT NULL")
	}
	if col.Type != value.KindInt {
		t.Error("SNO should be INTEGER")
	}
	pk, ok := s.PrimaryKey()
	if !ok || len(pk.Columns) != 1 || s.Columns[pk.Columns[0]].Name != "SNO" {
		t.Error("primary key wrong")
	}
	if len(s.Checks) != 3 {
		t.Errorf("got %d checks, want 3", len(s.Checks))
	}
}

func TestPartsCandidateKeys(t *testing.T) {
	c := paperCatalog(t)
	p, _ := c.Table("PARTS")
	if len(p.Keys) != 2 {
		t.Fatalf("got %d keys", len(p.Keys))
	}
	if names := p.KeyColumnNames(p.Keys[0]); strings.Join(names, ",") != "SNO,PNO" {
		t.Errorf("primary key = %v", names)
	}
	if names := p.KeyColumnNames(p.Keys[1]); strings.Join(names, ",") != "OEM-PNO" {
		t.Errorf("candidate key = %v", names)
	}
	// UNIQUE does not force NOT NULL.
	col, _ := p.Column("OEM-PNO")
	if col.NotNull {
		t.Error("UNIQUE column must remain nullable")
	}
}

func TestTableValidation(t *testing.T) {
	if _, err := NewTable("", []Column{{Name: "A"}}); err == nil {
		t.Error("empty table name should fail")
	}
	if _, err := NewTable("T", nil); err == nil {
		t.Error("no columns should fail")
	}
	if _, err := NewTable("T", []Column{{Name: "A"}, {Name: "a"}}); err == nil {
		t.Error("duplicate columns should fail")
	}
	if _, err := NewTable("T", []Column{{Name: ""}}); err == nil {
		t.Error("empty column name should fail")
	}
}

func TestAddKeyValidation(t *testing.T) {
	tb, _ := NewTable("T", []Column{{Name: "A", Type: value.KindInt}, {Name: "B", Type: value.KindInt}})
	if err := tb.AddKey(true, "A"); err != nil {
		t.Fatal(err)
	}
	if err := tb.AddKey(true, "B"); err == nil {
		t.Error("second primary key should fail")
	}
	if err := tb.AddKey(false, "NOPE"); err == nil {
		t.Error("unknown key column should fail")
	}
	if err := tb.AddKey(false, "B", "B"); err == nil {
		t.Error("duplicate key column should fail")
	}
	if err := tb.AddKey(false); err == nil {
		t.Error("empty key should fail")
	}
}

func TestAddCheckValidation(t *testing.T) {
	tb, _ := NewTable("T", []Column{{Name: "A", Type: value.KindInt}})
	good, _ := parser.ParseExpr("A BETWEEN 1 AND 9")
	if err := tb.AddCheck(good); err != nil {
		t.Errorf("valid check rejected: %v", err)
	}
	selfQual, _ := parser.ParseExpr("T.A = 1")
	if err := tb.AddCheck(selfQual); err != nil {
		t.Errorf("self-qualified check rejected: %v", err)
	}
	cases := []string{
		"B = 1",   // unknown column
		"X.A = 1", // foreign qualifier
		"A = :H",  // host variable
	}
	for _, src := range cases {
		e, err := parser.ParseExpr(src)
		if err != nil {
			t.Fatal(err)
		}
		if err := tb.AddCheck(e); err == nil {
			t.Errorf("AddCheck(%q): expected error", src)
		}
	}
	sub, _ := parser.ParseExpr("EXISTS (SELECT * FROM U WHERE U.A = 1)")
	if err := tb.AddCheck(sub); err == nil {
		t.Error("subquery in CHECK should fail")
	}
	if err := tb.AddCheck(nil); err == nil {
		t.Error("nil CHECK should fail")
	}
}

func TestCatalogDuplicateAndNames(t *testing.T) {
	c := paperCatalog(t)
	tb, _ := NewTable("SUPPLIER", []Column{{Name: "X", Type: value.KindInt}})
	if err := c.Define(tb); err == nil {
		t.Error("duplicate table should fail")
	}
	names := c.TableNames()
	want := []string{"AGENTS", "PARTS", "SUPPLIER"}
	if len(names) != 3 {
		t.Fatalf("names = %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Errorf("names[%d] = %s, want %s", i, names[i], want[i])
		}
	}
}

func mustScope(t *testing.T, c *Catalog, from ...ast.TableRef) *Scope {
	t.Helper()
	s, err := NewScope(c, from, nil)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestScopeResolveQualified(t *testing.T) {
	c := paperCatalog(t)
	s := mustScope(t, c,
		ast.TableRef{Table: "SUPPLIER", Alias: "S"},
		ast.TableRef{Table: "PARTS", Alias: "P"})
	r, err := s.Resolve(&ast.ColumnRef{Qualifier: "P", Column: "PNO"})
	if err != nil {
		t.Fatal(err)
	}
	if r.TableIdx != 1 || r.Table.Name != "PARTS" || r.Depth != 0 {
		t.Errorf("resolved = %+v", r)
	}
	if q := r.Qualified(s); q != "P.PNO" {
		t.Errorf("Qualified = %q", q)
	}
}

func TestScopeResolveUnqualifiedAmbiguity(t *testing.T) {
	c := paperCatalog(t)
	s := mustScope(t, c,
		ast.TableRef{Table: "SUPPLIER", Alias: "S"},
		ast.TableRef{Table: "PARTS", Alias: "P"})
	// SNAME exists only in SUPPLIER: fine.
	r, err := s.Resolve(&ast.ColumnRef{Column: "SNAME"})
	if err != nil || r.Table.Name != "SUPPLIER" {
		t.Errorf("SNAME: %v, %v", r, err)
	}
	// SNO exists in both: ambiguous.
	if _, err := s.Resolve(&ast.ColumnRef{Column: "SNO"}); err == nil {
		t.Error("ambiguous SNO should fail")
	}
	// Unknown column.
	if _, err := s.Resolve(&ast.ColumnRef{Column: "NOPE"}); err == nil {
		t.Error("unknown column should fail")
	}
	if _, err := s.Resolve(&ast.ColumnRef{Qualifier: "Z", Column: "SNO"}); err == nil {
		t.Error("unknown qualifier should fail")
	}
	if _, err := s.Resolve(&ast.ColumnRef{Qualifier: "S", Column: "PNO"}); err == nil {
		t.Error("wrong table for column should fail")
	}
}

func TestScopeCorrelation(t *testing.T) {
	c := paperCatalog(t)
	outer := mustScope(t, c, ast.TableRef{Table: "SUPPLIER", Alias: "S"})
	inner, err := NewScope(c, []ast.TableRef{{Table: "PARTS", Alias: "P"}}, outer)
	if err != nil {
		t.Fatal(err)
	}
	// S.SNO inside the subquery resolves to the outer block.
	r, err := inner.Resolve(&ast.ColumnRef{Qualifier: "S", Column: "SNO"})
	if err != nil {
		t.Fatal(err)
	}
	if r.Depth != 1 || r.Table.Name != "SUPPLIER" {
		t.Errorf("correlated resolve = %+v", r)
	}
	if q := r.Qualified(inner); q != "S.SNO" {
		t.Errorf("Qualified = %q", q)
	}
	// P.PNO resolves locally.
	r, err = inner.Resolve(&ast.ColumnRef{Qualifier: "P", Column: "PNO"})
	if err != nil || r.Depth != 0 {
		t.Errorf("local resolve = %+v, %v", r, err)
	}
}

func TestScopeValidation(t *testing.T) {
	c := paperCatalog(t)
	if _, err := NewScope(c, nil, nil); err == nil {
		t.Error("empty FROM should fail")
	}
	if _, err := NewScope(c, []ast.TableRef{{Table: "NOPE"}}, nil); err == nil {
		t.Error("unknown table should fail")
	}
	dup := []ast.TableRef{{Table: "SUPPLIER", Alias: "X"}, {Table: "PARTS", Alias: "X"}}
	if _, err := NewScope(c, dup, nil); err == nil {
		t.Error("duplicate correlation names should fail")
	}
}

func TestExpandItems(t *testing.T) {
	c := paperCatalog(t)
	s := mustScope(t, c,
		ast.TableRef{Table: "SUPPLIER", Alias: "S"},
		ast.TableRef{Table: "PARTS", Alias: "P"})

	// SELECT * expands to all 10 columns, qualified.
	refs, err := s.ExpandItems([]ast.SelectItem{{Star: true}})
	if err != nil {
		t.Fatal(err)
	}
	if len(refs) != 10 {
		t.Fatalf("* expanded to %d columns, want 10", len(refs))
	}
	if refs[0].SQL() != "S.SNO" || refs[5].SQL() != "P.SNO" {
		t.Errorf("expansion order wrong: %s, %s", refs[0].SQL(), refs[5].SQL())
	}

	// P.* expands to the 5 PARTS columns.
	refs, err = s.ExpandItems([]ast.SelectItem{{Star: true, StarQualifier: "P"}})
	if err != nil || len(refs) != 5 {
		t.Fatalf("P.* expanded to %d columns (%v), want 5", len(refs), err)
	}

	// Mixed list with unqualified name.
	refs, err = s.ExpandItems([]ast.SelectItem{
		{Expr: &ast.ColumnRef{Column: "SNAME"}},
		{Expr: &ast.ColumnRef{Qualifier: "P", Column: "PNO"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if refs[0].SQL() != "S.SNAME" || refs[1].SQL() != "P.PNO" {
		t.Errorf("mixed expansion = %s, %s", refs[0].SQL(), refs[1].SQL())
	}

	// Errors.
	if _, err := s.ExpandItems([]ast.SelectItem{{Star: true, StarQualifier: "Z"}}); err == nil {
		t.Error("Z.* should fail")
	}
	if _, err := s.ExpandItems([]ast.SelectItem{{Expr: &ast.ColumnRef{Column: "SNO"}}}); err == nil {
		t.Error("ambiguous item should fail")
	}
	if _, err := s.ExpandItems([]ast.SelectItem{{Expr: &ast.IntLit{V: 1}}}); err == nil {
		t.Error("non-column item should fail")
	}
}

func TestDropKey(t *testing.T) {
	c := paperCatalog(t)
	parts, _ := c.Table("PARTS")

	if err := parts.DropKey(-1); err == nil {
		t.Error("negative key index should fail")
	}
	if err := parts.DropKey(len(parts.Keys)); err == nil {
		t.Error("out-of-range key index should fail")
	}

	// Reference PARTS's UNIQUE (OEM-PNO) key (index 1) from a new table.
	ord, err := NewTable("ORD", []Column{{Name: "OPN", Type: value.KindInt}})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Define(ord); err != nil {
		t.Fatal(err)
	}
	if err := c.AddForeignKey(ord, []string{"OPN"}, "PARTS", []string{"OEM-PNO"}); err != nil {
		t.Fatal(err)
	}
	if err := parts.DropKey(1); err == nil || !strings.Contains(err.Error(), "FOREIGN KEY") {
		t.Errorf("dropping an FK-referenced key: err = %v, want FOREIGN KEY refusal", err)
	}

	// Dropping the primary key (index 0) shifts ORD's RefKey from 1 to
	// 0 so the inclusion dependency still names UNIQUE (OEM-PNO).
	v0 := c.Version()
	if err := parts.DropKey(0); err != nil {
		t.Fatal(err)
	}
	if c.Version() == v0 {
		t.Error("DropKey did not bump the catalog version")
	}
	if len(parts.Keys) != 1 {
		t.Fatalf("Keys = %v, want just the unique key", parts.Keys)
	}
	if _, ok := parts.PrimaryKey(); ok {
		t.Error("primary key still reported after drop")
	}
	if got := parts.KeyColumnNames(parts.Keys[0]); len(got) != 1 || got[0] != "OEM-PNO" {
		t.Errorf("surviving key columns = %v", got)
	}
	if fk := ord.ForeignKeys[0]; fk.RefKey != 0 {
		t.Errorf("RefKey = %d after drop, want 0 (shifted down)", fk.RefKey)
	}
	// SQL keeps the NOT NULL the primary key forced.
	if col, _ := parts.Column("SNO"); !col.NotNull {
		t.Error("dropping the primary key must not clear NOT NULL")
	}
}

func TestAddKeyBumpsVersionAfterDefine(t *testing.T) {
	c := New()
	tb, err := NewTable("T", []Column{{Name: "A", Type: value.KindInt}})
	if err != nil {
		t.Fatal(err)
	}
	// Before Define there is no catalog to notify; AddKey must not panic.
	if err := tb.AddKey(false, "A"); err != nil {
		t.Fatal(err)
	}
	if err := c.Define(tb); err != nil {
		t.Fatal(err)
	}
	v0 := c.Version()
	if err := tb.AddKey(true, "A"); err != nil {
		t.Fatal(err)
	}
	if c.Version() == v0 {
		t.Error("AddKey after Define did not bump the catalog version")
	}
	v1 := c.Version()
	if err := tb.AddCheck(&ast.Compare{Op: ast.GtOp, L: &ast.ColumnRef{Column: "A"}, R: &ast.IntLit{V: 0}}); err != nil {
		t.Fatal(err)
	}
	if c.Version() == v1 {
		t.Error("AddCheck after Define did not bump the catalog version")
	}
}
