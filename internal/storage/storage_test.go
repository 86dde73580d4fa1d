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

// Insert copies the row's cells into the table: a later write to the
// caller's row does not reach it, a duplicate key or an unknown table is
// refused, and the stored row is filed under its key.
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
	if err := s.Insert(supplierRow(1, "Dup", "Toronto", 100, "Active")); err == nil {
		t.Error("Insert accepted a duplicate key")
	}
	if err := db.Insert("NOPE", row); err == nil {
		t.Error("Insert into an unknown table should fail")
	}
	if s.LookupKey(0, value.Row{value.Int(1)}) != 0 || s.Len() != 1 {
		t.Error("Insert did not file the row under its key")
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

// TestKeyIndexSameHashChain forces several ordinals under one hash —
// what a 64-bit collision between different key values does — first on
// the index alone, then through a table's validate, store and lookup.
func TestKeyIndexSameHashChain(t *testing.T) {
	var k keyIndex
	k.reset()
	for ord := 0; ord < 5; ord++ {
		k.add(7, ord)
		if ord == 0 && k.more != nil {
			t.Error("overflow map made before any collision")
		}
	}
	k.add(8, 5)
	is := func(want int) func(int) bool { return func(ord int) bool { return ord == want } }
	for ord := 0; ord < 5; ord++ {
		if got := k.find(7, is(ord)); got != ord {
			t.Errorf("find(7, ==%d) = %d", ord, got)
		}
	}
	if got := k.find(7, func(ord int) bool { return ord >= 2 }); got != 2 {
		t.Errorf("find returned %d, want the first accepted in filing order, 2", got)
	}
	if k.find(7, is(5)) != -1 || k.find(8, is(5)) != 5 || k.find(9, is(0)) != -1 {
		t.Error("ordinals leaked between hashes")
	}
	if len(k.first) != 2 || len(k.more) != 1 || len(k.more[7]) != 4 {
		t.Errorf("first = %v, more = %v: want one ordinal per slot, the rest in overflow", k.first, k.more)
	}
	k.reset()
	if k.find(7, is(0)) != -1 || k.more != nil {
		t.Error("reset kept entries")
	}

	// Through a table: row 0's ordinal is also filed under the hashes of
	// two keys it does not carry, as if all three collided.
	p := paperDB(t).MustTable("PARTS")
	if err := p.Insert(partsRow(1, 1, "bolt", value.Int(101), "RED")); err != nil {
		t.Fatal(err)
	}
	nut, cog := partsRow(1, 2, "nut", value.Int(102), "BLUE"), partsRow(1, 3, "cog", value.Int(103), "RED")
	for _, r := range []value.Row{nut, cog} {
		for ki, key := range p.Schema.Keys {
			p.keyIdx[ki].add(value.HashCols(r, key.Columns), 0)
		}
	}
	for _, r := range []value.Row{nut, cog} {
		if err := p.Insert(r); err != nil {
			t.Fatalf("a row whose key only shares a hash with row 0 was refused: %v", err)
		}
		if err := p.Insert(r); err == nil || !strings.Contains(err.Error(), "PRIMARY KEY") {
			t.Errorf("duplicate behind a colliding slot: err = %v", err)
		}
	}
	if p.Len() != 3 || len(p.keyIdx[0].more) != 2 || len(p.keyIdx[1].more) != 2 {
		t.Fatalf("%d rows, overflow %v / %v", p.Len(), p.keyIdx[0].more, p.keyIdx[1].more)
	}
	for pno := int64(1); pno <= 3; pno++ {
		if ri := p.LookupKey(0, value.Row{value.Int(1), value.Int(pno)}); ri != int(pno-1) {
			t.Errorf("LookupKey(SNO 1, PNO %d) = %d", pno, ri)
		}
		if ri := p.LookupKey(1, value.Row{value.Int(100 + pno)}); ri != int(pno-1) {
			t.Errorf("LookupKey(OEM-PNO %d) = %d", 100+pno, ri)
		}
	}
	p.Truncate()
	if p.LookupKey(1, value.Row{value.Int(102)}) != -1 || p.keyIdx[1].more != nil {
		t.Error("Truncate kept key entries")
	}
}

// TestNullableUniqueThousandNullKeys: a thousand rows whose UNIQUE key
// has a NULL component. Under ≐ NULL is one value, so the keys are
// distinct exactly when their other component is: every row is accepted
// and found, a repeat is refused, and none of it needs the overflow map.
func TestNullableUniqueThousandNullKeys(t *testing.T) {
	c := catalog.New()
	st, err := parser.ParseStatement(`CREATE TABLE T (ID INTEGER, A INTEGER, B INTEGER, PRIMARY KEY (ID), UNIQUE (A, B))`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.DefineFromAST(st.(*ast.CreateTable)); err != nil {
		t.Fatal(err)
	}
	tbl := NewDB(c).MustTable("T")
	const n = 1000
	for i := int64(0); i < n; i++ {
		if err := tbl.Insert(value.Row{value.Int(i), value.Int(i), value.Null}); err != nil {
			t.Fatalf("(%d, NULL): %v", i, err)
		}
	}
	if err := tbl.Insert(value.Row{value.Int(n), value.Null, value.Null}); err != nil {
		t.Fatalf("(NULL, NULL): %v", err)
	}
	for _, dup := range []value.Row{
		{value.Int(n + 1), value.Int(500), value.Null},
		{value.Int(n + 1), value.Null, value.Null},
	} {
		if err := tbl.Insert(dup); err == nil || !strings.Contains(err.Error(), "UNIQUE") {
			t.Errorf("repeat of key %s: err = %v", dup[1:], err)
		}
	}
	for i := int64(0); i < n; i++ {
		if ri := tbl.LookupKey(1, value.Row{value.Int(i), value.Null}); ri != int(i) {
			t.Fatalf("LookupKey(%d, NULL) = %d", i, ri)
		}
	}
	if ri := tbl.LookupKey(1, value.Row{value.Null, value.Null}); ri != n {
		t.Errorf("LookupKey(NULL, NULL) = %d", ri)
	}
	if tbl.Len() != n+1 || len(tbl.keyIdx[1].first) != n+1 || tbl.keyIdx[1].more != nil {
		t.Errorf("%d rows, %d slots, overflow %v", tbl.Len(), len(tbl.keyIdx[1].first), tbl.keyIdx[1].more)
	}
}
