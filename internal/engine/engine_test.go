package engine

import (
	"testing"

	"uniqopt/internal/catalog"
	"uniqopt/internal/sql/ast"
	"uniqopt/internal/sql/parser"
	"uniqopt/internal/storage"
	"uniqopt/internal/value"
)

// testDB builds the paper's schema with a small, hand-checkable
// instance.
//
// SUPPLIER: (1,Smith,Toronto) (2,Jones,Chicago) (3,Smith,New York)
// PARTS:    (1,1,bolt,RED) (1,2,nut,BLUE) (2,1,bolt,RED) (3,9,cam,RED)
// AGENTS:   (1,1,Ann,Ottawa) (2,2,Bob,Hull) (3,3,Cyd,Paris)
func testDB(t testing.TB) *storage.DB {
	t.Helper()
	c := catalog.New()
	ddl := []string{
		`CREATE TABLE SUPPLIER (SNO INTEGER, SNAME VARCHAR, SCITY VARCHAR,
			BUDGET INTEGER, STATUS VARCHAR, PRIMARY KEY (SNO))`,
		`CREATE TABLE PARTS (SNO INTEGER, PNO INTEGER, PNAME VARCHAR,
			OEM-PNO INTEGER, COLOR VARCHAR, PRIMARY KEY (SNO, PNO), UNIQUE (OEM-PNO))`,
		`CREATE TABLE AGENTS (SNO INTEGER, ANO INTEGER, ANAME VARCHAR,
			ACITY VARCHAR, PRIMARY KEY (SNO, ANO))`,
	}
	for _, src := range ddl {
		st, err := parser.ParseStatement(src)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.DefineFromAST(st.(*ast.CreateTable)); err != nil {
			t.Fatal(err)
		}
	}
	db := storage.NewDB(c)
	sup := [][]any{
		{1, "Smith", "Toronto", 100, "Active"},
		{2, "Jones", "Chicago", 200, "Active"},
		{3, "Smith", "New York", 300, "Active"},
	}
	for _, r := range sup {
		row := value.Row{value.Int(int64(r[0].(int))), value.String_(r[1].(string)),
			value.String_(r[2].(string)), value.Int(int64(r[3].(int))), value.String_(r[4].(string))}
		if err := db.Insert("SUPPLIER", row); err != nil {
			t.Fatal(err)
		}
	}
	parts := [][]any{
		{1, 1, "bolt", 101, "RED"},
		{1, 2, "nut", 102, "BLUE"},
		{2, 1, "bolt", 103, "RED"},
		{3, 9, "cam", 104, "RED"},
	}
	for _, r := range parts {
		row := value.Row{value.Int(int64(r[0].(int))), value.Int(int64(r[1].(int))),
			value.String_(r[2].(string)), value.Int(int64(r[3].(int))), value.String_(r[4].(string))}
		if err := db.Insert("PARTS", row); err != nil {
			t.Fatal(err)
		}
	}
	agents := [][]any{
		{1, 1, "Ann", "Ottawa"},
		{2, 2, "Bob", "Hull"},
		{3, 3, "Cyd", "Paris"},
	}
	for _, r := range agents {
		row := value.Row{value.Int(int64(r[0].(int))), value.Int(int64(r[1].(int))),
			value.String_(r[2].(string)), value.String_(r[3].(string))}
		if err := db.Insert("AGENTS", row); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func run(t *testing.T, db *storage.DB, src string, hosts map[string]value.Value) *Relation {
	t.Helper()
	q, err := parser.ParseQuery(src)
	if err != nil {
		t.Fatal(err)
	}
	ex := NewExecutor(db, hosts)
	rel, err := ex.Query(q)
	if err != nil {
		t.Fatalf("Query(%q): %v", src, err)
	}
	return rel
}

func TestScanAndProduct(t *testing.T) {
	db := testDB(t)
	var st Stats
	s := okRel(Scan(ctx0, &st, db.MustTable("SUPPLIER"), "S"))
	p := okRel(Scan(ctx0, &st, db.MustTable("PARTS"), "P"))
	if s.Len() != 3 || p.Len() != 4 {
		t.Fatalf("scan sizes: %d, %d", s.Len(), p.Len())
	}
	if st.RowsScanned != 7 {
		t.Errorf("RowsScanned = %d", st.RowsScanned)
	}
	prod := okRel(Product(ctx0, &st, s, p))
	if prod.Len() != 12 || len(prod.Cols) != 10 {
		t.Errorf("product = %d rows × %d cols", prod.Len(), len(prod.Cols))
	}
	if st.JoinPairs != 12 {
		t.Errorf("JoinPairs = %d", st.JoinPairs)
	}
	if prod.Cols[0] != "S.SNO" || prod.Cols[5] != "P.SNO" {
		t.Errorf("cols = %v", prod.Cols)
	}
}

func TestSimpleSelect(t *testing.T) {
	db := testDB(t)
	rel := run(t, db, "SELECT S.SNO, S.SNAME FROM SUPPLIER S WHERE S.SCITY = 'Toronto'", nil)
	if rel.Len() != 1 || rel.Rows[0][0].AsInt() != 1 {
		t.Errorf("result = %v", rel)
	}
}

func TestJoinQuery(t *testing.T) {
	db := testDB(t)
	rel := run(t, db, `SELECT S.SNO, P.PNO, P.PNAME FROM SUPPLIER S, PARTS P
		WHERE S.SNO = P.SNO AND P.COLOR = 'RED'`, nil)
	// Red parts: (1,1), (2,1), (3,9) → three rows.
	if rel.Len() != 3 {
		t.Errorf("got %d rows: %v", rel.Len(), rel)
	}
}

func TestStarProjectionAndUnqualified(t *testing.T) {
	db := testDB(t)
	rel := run(t, db, "SELECT * FROM AGENTS A WHERE ACITY = 'Hull'", nil)
	if rel.Len() != 1 || len(rel.Cols) != 4 {
		t.Errorf("result = %v", rel)
	}
	if rel.Rows[0][2].AsString() != "Bob" {
		t.Errorf("row = %v", rel.Rows[0])
	}
}

func TestHostVariables(t *testing.T) {
	db := testDB(t)
	rel := run(t, db, `SELECT ALL S.SNO, SNAME, P.PNO, PNAME
		FROM SUPPLIER S, PARTS P
		WHERE P.SNO = :SUPPLIER-NO AND S.SNO = P.SNO`,
		map[string]value.Value{"SUPPLIER-NO": value.Int(1)})
	if rel.Len() != 2 {
		t.Errorf("got %d rows", rel.Len())
	}
}

func TestDistinctEliminatesDuplicates(t *testing.T) {
	db := testDB(t)
	// Example 2's shape: two suppliers named Smith both supply red
	// parts; SNAME alone duplicates.
	all := run(t, db, `SELECT ALL S.SNAME FROM SUPPLIER S, PARTS P
		WHERE S.SNO = P.SNO AND P.COLOR = 'RED'`, nil)
	dist := run(t, db, `SELECT DISTINCT S.SNAME FROM SUPPLIER S, PARTS P
		WHERE S.SNO = P.SNO AND P.COLOR = 'RED'`, nil)
	if all.Len() != 3 {
		t.Errorf("ALL: %d rows", all.Len())
	}
	if dist.Len() != 2 { // Smith, Jones
		t.Errorf("DISTINCT: %d rows: %v", dist.Len(), dist)
	}
}

func TestCorrelatedExists(t *testing.T) {
	db := testDB(t)
	// Paper Example 8: suppliers supplying at least one red part.
	rel := run(t, db, `SELECT ALL S.SNO, S.SNAME FROM SUPPLIER S
		WHERE EXISTS (SELECT * FROM PARTS P
		              WHERE P.SNO = S.SNO AND P.COLOR = 'RED')`, nil)
	if rel.Len() != 3 {
		t.Errorf("got %d rows: %v", rel.Len(), rel)
	}
	rel = run(t, db, `SELECT ALL S.SNO FROM SUPPLIER S
		WHERE EXISTS (SELECT * FROM PARTS P
		              WHERE P.SNO = S.SNO AND P.COLOR = 'BLUE')`, nil)
	if rel.Len() != 1 || rel.Rows[0][0].AsInt() != 1 {
		t.Errorf("blue: %v", rel)
	}
}

func TestNotExists(t *testing.T) {
	db := testDB(t)
	rel := run(t, db, `SELECT S.SNO FROM SUPPLIER S
		WHERE NOT EXISTS (SELECT * FROM PARTS P
		                  WHERE P.SNO = S.SNO AND P.COLOR = 'BLUE')`, nil)
	// Suppliers 2 and 3 have no blue part.
	if rel.Len() != 2 {
		t.Errorf("got %d rows: %v", rel.Len(), rel)
	}
}

func TestIntersectDistinctAndAll(t *testing.T) {
	db := testDB(t)
	// Supplier numbers appearing in both PARTS and AGENTS.
	dist := run(t, db, `SELECT P.SNO FROM PARTS P INTERSECT SELECT A.SNO FROM AGENTS A`, nil)
	if dist.Len() != 3 { // 1, 2, 3 each
		t.Errorf("INTERSECT: %d rows: %v", dist.Len(), dist)
	}
	all := run(t, db, `SELECT P.SNO FROM PARTS P INTERSECT ALL SELECT A.SNO FROM AGENTS A`, nil)
	// PARTS SNOs: {1×2, 2, 3}; AGENTS SNOs: {1, 2, 3} → min counts 1,1,1.
	if all.Len() != 3 {
		t.Errorf("INTERSECT ALL: %d rows: %v", all.Len(), all)
	}
}

func TestExceptDistinctAndAll(t *testing.T) {
	db := testDB(t)
	allRes := run(t, db, `SELECT P.SNO FROM PARTS P EXCEPT ALL SELECT A.SNO FROM AGENTS A`, nil)
	// PARTS {1,1,2,3} − AGENTS {1,2,3} = {1}.
	if allRes.Len() != 1 || allRes.Rows[0][0].AsInt() != 1 {
		t.Errorf("EXCEPT ALL: %v", allRes)
	}
	dist := run(t, db, `SELECT P.SNO FROM PARTS P EXCEPT SELECT A.SNO FROM AGENTS A`, nil)
	if dist.Len() != 0 {
		t.Errorf("EXCEPT: %v", dist)
	}
}

func TestSetOpNullEquivalence(t *testing.T) {
	// INTERSECT must treat NULL ≐ NULL as equal — the paper's §5.3
	// point. Build tables with NULL keys via a dedicated schema.
	c := catalog.New()
	st, _ := parser.ParseStatement(`CREATE TABLE L (X INTEGER, UNIQUE (X))`)
	if _, err := c.DefineFromAST(st.(*ast.CreateTable)); err != nil {
		t.Fatal(err)
	}
	st, _ = parser.ParseStatement(`CREATE TABLE R (X INTEGER, UNIQUE (X))`)
	if _, err := c.DefineFromAST(st.(*ast.CreateTable)); err != nil {
		t.Fatal(err)
	}
	db := storage.NewDB(c)
	if err := db.Insert("L", value.Row{value.Null}); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("L", value.Row{value.Int(1)}); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("R", value.Row{value.Null}); err != nil {
		t.Fatal(err)
	}
	rel := run(t, db, "SELECT X FROM L INTERSECT SELECT X FROM R", nil)
	if rel.Len() != 1 || !rel.Rows[0][0].IsNull() {
		t.Errorf("NULL row must intersect: %v", rel)
	}
}

func TestJoinOperatorsAgree(t *testing.T) {
	db := testDB(t)
	var st Stats
	s := okRel(Scan(ctx0, &st, db.MustTable("SUPPLIER"), "S"))
	p := okRel(Scan(ctx0, &st, db.MustTable("PARTS"), "P"))
	want := joinOracle(&st, s, p, "S.SNO", "P.SNO")
	identicalRelations(t, want, hashJoin(&st, s, p, []string{"S.SNO"}, []string{"P.SNO"}),
		"hash join vs selection over product")
	if want.Len() != 4 {
		t.Errorf("join produced %d rows, want 4", want.Len())
	}
}

func TestJoinNullKeysNeverMatch(t *testing.T) {
	var st Stats
	l := &Relation{Cols: []string{"L.K"}, Rows: []value.Row{{value.Null}, {value.Int(1)}}}
	r := &Relation{Cols: []string{"R.K"}, Rows: []value.Row{{value.Null}, {value.Int(1)}}}
	if hj := hashJoin(&st, l, r, []string{"L.K"}, []string{"R.K"}); hj.Len() != 1 {
		t.Errorf("hash join with NULLs = %d rows, want 1", hj.Len())
	}
}

func TestDistinctOperatorsAgree(t *testing.T) {
	var st Stats
	rel := &Relation{Cols: []string{"A", "B"}}
	rows := []value.Row{
		{value.Int(1), value.Null},
		{value.Int(1), value.Null}, // dup under ≐
		{value.Int(1), value.Int(2)},
		{value.Int(2), value.Int(2)},
		{value.Int(1), value.Int(2)}, // dup
	}
	rel.Rows = rows
	ds := okRel(DistinctSort(ctx0, &st, rel))
	dh := hashDistinct(&st, rel)
	if ds.Len() != 3 || dh.Len() != 3 {
		t.Errorf("distinct sizes: sort=%d hash=%d, want 3", ds.Len(), dh.Len())
	}
	if !MultisetEqual(ds, dh) {
		t.Error("sort and hash distinct disagree")
	}
	if st.SortRuns != 1 {
		t.Errorf("SortRuns = %d", st.SortRuns)
	}
}

func TestProjectPreservesMultiplicity(t *testing.T) {
	db := testDB(t)
	var st Stats
	p := okRel(Scan(ctx0, &st, db.MustTable("PARTS"), "P"))
	proj := okRel(Project(ctx0, &st, p, []string{"P.SNO"}))
	if proj.Len() != 4 {
		t.Errorf("projection lost rows: %d", proj.Len())
	}
	if len(proj.Cols) != 1 || proj.Cols[0] != "P.SNO" {
		t.Errorf("cols = %v", proj.Cols)
	}
}

func TestColumnIndexFallback(t *testing.T) {
	rel := &Relation{Cols: []string{"S.SNO", "P.SNO", "P.PNO"}}
	if rel.ColumnIndex("P.PNO") != 2 {
		t.Error("exact lookup failed")
	}
	if rel.ColumnIndex("PNO") != 2 {
		t.Error("suffix lookup failed")
	}
	if rel.ColumnIndex("SNO") != -1 {
		t.Error("ambiguous suffix should fail")
	}
	if rel.ColumnIndex("NOPE") != -1 {
		t.Error("unknown column should fail")
	}
}

func TestMultisetEqual(t *testing.T) {
	a := &Relation{Cols: []string{"X"}, Rows: []value.Row{{value.Int(1)}, {value.Int(1)}, {value.Null}}}
	b := &Relation{Cols: []string{"X"}, Rows: []value.Row{{value.Null}, {value.Int(1)}, {value.Int(1)}}}
	if !MultisetEqual(a, b) {
		t.Error("order must not matter")
	}
	c := &Relation{Cols: []string{"X"}, Rows: []value.Row{{value.Int(1)}, {value.Null}, {value.Null}}}
	if MultisetEqual(a, c) {
		t.Error("different multiplicities must differ")
	}
	d := &Relation{Cols: []string{"X"}, Rows: []value.Row{{value.Int(1)}, {value.Int(1)}}}
	if MultisetEqual(a, d) {
		t.Error("different cardinalities must differ")
	}
}

func TestExecutorErrors(t *testing.T) {
	db := testDB(t)
	bad := []string{
		"SELECT X FROM NOPE",
		"SELECT NOPE FROM SUPPLIER S",
		"SELECT S.SNO FROM SUPPLIER S WHERE S.SNO = :UNBOUND",
		"SELECT S.SNO FROM SUPPLIER S INTERSECT SELECT A.SNO, A.ANO FROM AGENTS A",
	}
	for _, src := range bad {
		q, err := parser.ParseQuery(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		if _, err := NewExecutor(db, nil).Query(q); err == nil {
			t.Errorf("Query(%q): expected error", src)
		}
	}
}

func TestStatsAddAndString(t *testing.T) {
	a := Stats{RowsScanned: 1, Comparisons: 2, SortRuns: 3}
	b := Stats{RowsScanned: 10, HashProbes: 5, SubqueryRuns: 1}
	a.Add(b)
	if a.RowsScanned != 11 || a.HashProbes != 5 || a.SortRuns != 3 {
		t.Errorf("Add result = %+v", a)
	}
	if a.String() == "" {
		t.Error("String must be non-empty")
	}
}

func TestRelationClone(t *testing.T) {
	rel := &Relation{Cols: []string{"X"}, Rows: []value.Row{{value.Int(1)}}}
	cp := rel.Clone()
	cp.Rows[0][0] = value.Int(99)
	cp.Cols[0] = "Y"
	if rel.Rows[0][0].AsInt() != 1 || rel.Cols[0] != "X" {
		t.Error("Clone shares state")
	}
}

// Doubly nested EXISTS: the inner block references columns two scopes
// up (S from the outermost block).
func TestDoublyNestedExists(t *testing.T) {
	db := testDB(t)
	// Suppliers that supply a part for which an agent of the same
	// supplier exists in Ottawa.
	rel := run(t, db, `SELECT S.SNO FROM SUPPLIER S
		WHERE EXISTS (SELECT * FROM PARTS P
		              WHERE P.SNO = S.SNO AND
		              EXISTS (SELECT * FROM AGENTS A
		                      WHERE A.SNO = S.SNO AND A.ACITY = 'Ottawa'))`, nil)
	// Only supplier 1 has an Ottawa agent (and it has parts).
	if rel.Len() != 1 || rel.Rows[0][0].AsInt() != 1 {
		t.Errorf("result = %v", rel)
	}
}

// Correlated NOT EXISTS nested inside EXISTS.
func TestMixedNestedExists(t *testing.T) {
	db := testDB(t)
	// Suppliers with a part whose (SNO, PNO) has no blue sibling part.
	rel := run(t, db, `SELECT DISTINCT S.SNO FROM SUPPLIER S
		WHERE EXISTS (SELECT * FROM PARTS P
		              WHERE P.SNO = S.SNO AND
		              NOT EXISTS (SELECT * FROM PARTS Q
		                          WHERE Q.SNO = P.SNO AND Q.COLOR = 'BLUE'))`, nil)
	// Suppliers 2 and 3 have no blue parts at all; supplier 1 has a
	// blue part, so its NOT EXISTS fails for every part.
	if rel.Len() != 2 {
		t.Errorf("result = %v", rel)
	}
}
