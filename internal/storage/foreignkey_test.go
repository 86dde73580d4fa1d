package storage

import (
	"strings"
	"testing"

	"uniqopt/internal/catalog"
	"uniqopt/internal/sql/ast"
	"uniqopt/internal/sql/parser"
	"uniqopt/internal/value"
)

func fkDB(t *testing.T) *DB {
	t.Helper()
	c := catalog.New()
	for _, ddl := range []string{
		`CREATE TABLE SUPPLIER (SNO INTEGER, SNAME VARCHAR, PRIMARY KEY (SNO))`,
		`CREATE TABLE PARTS (SNO INTEGER, PNO INTEGER, COLOR VARCHAR,
			PRIMARY KEY (SNO, PNO),
			FOREIGN KEY (SNO) REFERENCES SUPPLIER (SNO))`,
		`CREATE TABLE NOTE (ID INTEGER, SNO INTEGER, PRIMARY KEY (ID),
			FOREIGN KEY (SNO) REFERENCES SUPPLIER (SNO))`,
	} {
		st, err := parser.ParseStatement(ddl)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.DefineFromAST(st.(*ast.CreateTable)); err != nil {
			t.Fatal(err)
		}
	}
	return NewDB(c)
}

func TestFKInsertEnforced(t *testing.T) {
	db := fkDB(t)
	if err := db.Insert("PARTS", value.Row{value.Int(1), value.Int(1), value.String_("RED")}); err == nil {
		t.Fatal("orphan child must be rejected")
	}
	if err := db.Insert("SUPPLIER", value.Row{value.Int(1), value.String_("Smith")}); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("PARTS", value.Row{value.Int(1), value.Int(1), value.String_("RED")}); err != nil {
		t.Errorf("valid child rejected: %v", err)
	}
	err := db.Insert("PARTS", value.Row{value.Int(2), value.Int(1), value.String_("RED")})
	if err == nil || !strings.Contains(err.Error(), "FOREIGN KEY") {
		t.Errorf("orphan error = %v", err)
	}
}

func TestFKNullMatchSimple(t *testing.T) {
	// A NULL FK component makes the dependency vacuous (MATCH SIMPLE).
	db := fkDB(t)
	if err := db.Insert("NOTE", value.Row{value.Int(1), value.Null}); err != nil {
		t.Errorf("NULL FK should be accepted: %v", err)
	}
	if err := db.Insert("NOTE", value.Row{value.Int(2), value.Int(9)}); err == nil {
		t.Error("non-NULL dangling FK must be rejected")
	}
}

func TestFKStandaloneTableUnenforced(t *testing.T) {
	// Tables created outside a DB have no sibling access and skip FK
	// checks — documented behavior for loaders and unit fixtures.
	db := fkDB(t)
	schema, _ := db.Catalog().Table("PARTS")
	solo := NewTable(schema)
	if err := solo.Insert(value.Row{value.Int(77), value.Int(1), value.String_("RED")}); err != nil {
		t.Errorf("standalone table should not enforce FKs: %v", err)
	}
}

// mustCatalog builds a catalog from DDL for fixtures.
func mustCatalog(t testing.TB, ddl []string) *catalog.Catalog {
	t.Helper()
	c := catalog.New()
	for _, src := range ddl {
		st, err := parser.ParseStatement(src)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.DefineFromAST(st.(*ast.CreateTable)); err != nil {
			t.Fatal(err)
		}
	}
	return c
}
