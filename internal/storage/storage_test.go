package storage

import (
	"strings"
	"testing"

	"uniqopt/internal/catalog"
	"uniqopt/internal/sql/ast"
	"uniqopt/internal/sql/parser"
	"uniqopt/internal/value"
)

func paperDB(t *testing.T) *DB {
	t.Helper()
	c := catalog.New()
	for _, ddl := range []string{
		`CREATE TABLE SUPPLIER (
			SNO INTEGER, SNAME VARCHAR, SCITY VARCHAR, BUDGET INTEGER, STATUS VARCHAR,
			PRIMARY KEY (SNO),
			CHECK (SNO BETWEEN 1 AND 499),
			CHECK (SCITY IN ('Chicago', 'New York', 'Toronto')),
			CHECK (BUDGET <> 0 OR STATUS = 'Inactive'))`,
		`CREATE TABLE PARTS (
			SNO INTEGER, PNO INTEGER, PNAME VARCHAR, OEM-PNO INTEGER, COLOR VARCHAR,
			PRIMARY KEY (SNO, PNO), UNIQUE (OEM-PNO),
			CHECK (SNO BETWEEN 1 AND 499))`,
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

func supplierRow(sno int64, name, city string, budget int64, status string) value.Row {
	return value.Row{value.Int(sno), value.String_(name), value.String_(city),
		value.Int(budget), value.String_(status)}
}

func partsRow(sno, pno int64, name string, oem value.Value, color string) value.Row {
	return value.Row{value.Int(sno), value.Int(pno), value.String_(name), oem, value.String_(color)}
}

func TestInsertAndRead(t *testing.T) {
	db := paperDB(t)
	s := db.MustTable("supplier")
	if err := s.Insert(supplierRow(1, "Acme", "Toronto", 100, "Active")); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 1 {
		t.Fatal("row not stored")
	}
	if s.Row(0)[1].AsString() != "Acme" {
		t.Error("row content wrong")
	}
}

func TestInsertClonesRow(t *testing.T) {
	db := paperDB(t)
	s := db.MustTable("SUPPLIER")
	row := supplierRow(1, "Acme", "Toronto", 100, "Active")
	if err := s.Insert(row); err != nil {
		t.Fatal(err)
	}
	row[1] = value.String_("Mutated")
	if s.Row(0)[1].AsString() != "Acme" {
		t.Error("Insert did not clone the row")
	}
}

// InsertOwned is the same insert without the copy: same constraint
// checks, same key and index upkeep, and the table holds the very slice
// it was given.
func TestInsertOwnedKeepsTheSlice(t *testing.T) {
	db := paperDB(t)
	s := db.MustTable("SUPPLIER")
	row := supplierRow(1, "Acme", "Toronto", 100, "Active")
	if err := s.InsertOwned(row); err != nil {
		t.Fatal(err)
	}
	if &s.Row(0)[0] != &row[0] {
		t.Error("InsertOwned copied the row")
	}
	if err := s.InsertOwned(supplierRow(1, "Dup", "Toronto", 100, "Active")); err == nil {
		t.Error("InsertOwned accepted a duplicate key")
	}
	if err := db.InsertOwned("NOPE", row); err == nil {
		t.Error("InsertOwned into an unknown table should fail")
	}
	if s.LookupKey(0, value.Row{value.Int(1)}) != 0 || s.Len() != 1 {
		t.Error("InsertOwned did not file the row under its key")
	}
}

func TestArityAndTypeChecks(t *testing.T) {
	db := paperDB(t)
	s := db.MustTable("SUPPLIER")
	if err := s.Insert(value.Row{value.Int(1)}); err == nil {
		t.Error("short row should fail")
	}
	bad := supplierRow(1, "A", "Toronto", 1, "Active")
	bad[3] = value.String_("not-an-int")
	if err := s.Insert(bad); err == nil || !strings.Contains(err.Error(), "BUDGET") {
		t.Errorf("type mismatch should fail naming the column, got %v", err)
	}
}

func TestNotNullEnforcement(t *testing.T) {
	db := paperDB(t)
	s := db.MustTable("SUPPLIER")
	row := supplierRow(1, "A", "Toronto", 1, "Active")
	row[0] = value.Null // primary key column
	if err := s.Insert(row); err == nil || !strings.Contains(err.Error(), "NOT NULL") {
		t.Errorf("NULL primary key should fail, got %v", err)
	}
	// Non-key nullable column accepts NULL.
	ok := supplierRow(1, "A", "Toronto", 1, "Active")
	ok[1] = value.Null
	if err := s.Insert(ok); err != nil {
		t.Errorf("nullable column rejected NULL: %v", err)
	}
}

func TestCheckEnforcement(t *testing.T) {
	db := paperDB(t)
	s := db.MustTable("SUPPLIER")
	if err := s.Insert(supplierRow(500, "A", "Toronto", 1, "Active")); err == nil {
		t.Error("SNO out of range should fail")
	}
	if err := s.Insert(supplierRow(1, "A", "Ottawa", 1, "Active")); err == nil {
		t.Error("SCITY not in list should fail")
	}
	if err := s.Insert(supplierRow(1, "A", "Toronto", 0, "Active")); err == nil {
		t.Error("BUDGET=0 with Active should fail the implication constraint")
	}
	if err := s.Insert(supplierRow(1, "A", "Toronto", 0, "Inactive")); err != nil {
		t.Errorf("BUDGET=0 with Inactive should pass: %v", err)
	}
}

func TestCheckTrueInterpretation(t *testing.T) {
	// NULL SCITY makes the IN-check Unknown: the row must be accepted.
	db := paperDB(t)
	s := db.MustTable("SUPPLIER")
	row := supplierRow(1, "A", "Toronto", 1, "Active")
	row[2] = value.Null
	if err := s.Insert(row); err != nil {
		t.Errorf("Unknown CHECK must pass (true-interpreted): %v", err)
	}
}

// TestChecksCompiledOncePerTable: CHECKs are compiled against the
// column ordinals on first use and extended — not rebuilt, not missed —
// when the schema gains one; self-qualified references resolve; a
// violation and an evaluation error keep their texts; and a table
// without CHECKs builds nothing per row.
func TestChecksCompiledOncePerTable(t *testing.T) {
	schema, err := catalog.NewTable("T", []catalog.Column{
		{Name: "A", Type: value.KindInt}, {Name: "B", Type: value.KindString}})
	if err != nil {
		t.Fatal(err)
	}
	tbl := NewTable(schema)
	if err := tbl.Insert(value.Row{value.Int(-5), value.String_("x")}); err != nil {
		t.Fatal(err)
	}
	if tbl.checks != nil {
		t.Fatal("a table without CHECKs compiled something")
	}
	check := func(src string) ast.Expr {
		e, err := parser.ParseExpr(src)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	if err := schema.AddCheck(check("T.A > 0")); err != nil {
		t.Fatal(err)
	}
	err = tbl.Insert(value.Row{value.Int(-1), value.String_("x")})
	if err == nil || err.Error() != "storage: T: row (-1, 'x') violates CHECK (T.A > 0)" {
		t.Fatalf("violation of a CHECK added after the first insert: %v", err)
	}
	if err := tbl.Insert(value.Row{value.Int(1), value.String_("x")}); err != nil {
		t.Fatal(err)
	}
	if err := schema.AddCheck(check("B <> 'bad' OR A = B")); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Insert(value.Row{value.Int(2), value.String_("bad")}); err == nil ||
		!strings.Contains(err.Error(), "CHECK B <> 'bad' OR A = B: eval: cannot compare INTEGER with VARCHAR") {
		t.Fatalf("evaluation error of the second CHECK: %v", err)
	}
	if err := tbl.Insert(value.Row{value.Int(2), value.Null}); err != nil {
		t.Fatalf("Unknown CHECK must pass: %v", err)
	}
	if len(tbl.checks) != 2 {
		t.Fatalf("compiled checks = %d, want 2", len(tbl.checks))
	}
}

func TestPrimaryKeyUniqueness(t *testing.T) {
	db := paperDB(t)
	p := db.MustTable("PARTS")
	if err := p.Insert(partsRow(1, 1, "bolt", value.Int(100), "RED")); err != nil {
		t.Fatal(err)
	}
	// Same (SNO, PNO): reject.
	if err := p.Insert(partsRow(1, 1, "nut", value.Int(101), "BLUE")); err == nil {
		t.Error("duplicate primary key should fail")
	}
	// Different PNO: fine.
	if err := p.Insert(partsRow(1, 2, "nut", value.Int(102), "BLUE")); err != nil {
		t.Errorf("distinct key rejected: %v", err)
	}
}

func TestUniqueKeyNullSemantics(t *testing.T) {
	// The paper: "any instance of PARTS may have only one tuple with
	// OEM-PNO = NULL" — NULL is a single special value for keys.
	db := paperDB(t)
	p := db.MustTable("PARTS")
	if err := p.Insert(partsRow(1, 1, "bolt", value.Null, "RED")); err != nil {
		t.Fatal(err)
	}
	if err := p.Insert(partsRow(1, 2, "nut", value.Null, "BLUE")); err == nil {
		t.Error("second NULL OEM-PNO should fail under ≐ key semantics")
	}
	if err := p.Insert(partsRow(1, 2, "nut", value.Int(5), "BLUE")); err != nil {
		t.Errorf("non-NULL OEM-PNO rejected: %v", err)
	}
	if err := p.Insert(partsRow(1, 3, "cog", value.Int(5), "RED")); err == nil {
		t.Error("duplicate OEM-PNO should fail")
	}
}

func TestLookupKey(t *testing.T) {
	db := paperDB(t)
	p := db.MustTable("PARTS")
	for pno := int64(1); pno <= 5; pno++ {
		if err := p.Insert(partsRow(1, pno, "p", value.Int(100+pno), "RED")); err != nil {
			t.Fatal(err)
		}
	}
	ri := p.LookupKey(0, value.Row{value.Int(1), value.Int(3)})
	if ri < 0 || p.Row(ri)[1].AsInt() != 3 {
		t.Errorf("primary key lookup = %d", ri)
	}
	ri = p.LookupKey(1, value.Row{value.Int(104)})
	if ri < 0 || p.Row(ri)[1].AsInt() != 4 {
		t.Errorf("candidate key lookup = %d", ri)
	}
	if p.LookupKey(0, value.Row{value.Int(9), value.Int(9)}) != -1 {
		t.Error("missing key should return -1")
	}
}

func TestTruncate(t *testing.T) {
	db := paperDB(t)
	p := db.MustTable("PARTS")
	if err := p.Insert(partsRow(1, 1, "bolt", value.Int(1), "RED")); err != nil {
		t.Fatal(err)
	}
	p.Truncate()
	if p.Len() != 0 {
		t.Error("Truncate left rows behind")
	}
	// Key index must be reset too: the same key may be inserted again.
	if err := p.Insert(partsRow(1, 1, "bolt", value.Int(1), "RED")); err != nil {
		t.Errorf("insert after truncate failed: %v", err)
	}
}

func TestDBLookup(t *testing.T) {
	db := paperDB(t)
	if _, ok := db.Table("NOPE"); ok {
		t.Error("unknown table lookup should fail")
	}
	if err := db.Insert("NOPE", value.Row{}); err == nil {
		t.Error("insert into unknown table should fail")
	}
	if err := db.Insert("supplier", supplierRow(1, "A", "Toronto", 1, "Active")); err != nil {
		t.Errorf("DB.Insert failed: %v", err)
	}
	defer func() {
		if recover() == nil {
			t.Error("MustTable on unknown table should panic")
		}
	}()
	db.MustTable("NOPE")
}

func TestValidateDoesNotStore(t *testing.T) {
	db := paperDB(t)
	s := db.MustTable("SUPPLIER")
	if err := s.Validate(supplierRow(1, "A", "Toronto", 1, "Active")); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 0 {
		t.Error("Validate must not store the row")
	}
}
