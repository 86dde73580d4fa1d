package uniqopt

import (
	"strings"
	"testing"

	"uniqopt/internal/core"
	"uniqopt/internal/sql/parser"
	"uniqopt/internal/vcache"
	"uniqopt/internal/workload"
)

// paperDB opens a database with Figure 1's schema and a small instance.
func paperDB(t testing.TB) *DB {
	t.Helper()
	db := Open()
	ddl := []string{
		`CREATE TABLE SUPPLIER (SNO INTEGER, SNAME VARCHAR, SCITY VARCHAR,
			BUDGET INTEGER, STATUS VARCHAR, PRIMARY KEY (SNO))`,
		`CREATE TABLE PARTS (SNO INTEGER, PNO INTEGER, PNAME VARCHAR,
			OEM-PNO INTEGER, COLOR VARCHAR, PRIMARY KEY (SNO, PNO), UNIQUE (OEM-PNO))`,
		`CREATE TABLE AGENTS (SNO INTEGER, ANO INTEGER, ANAME VARCHAR,
			ACITY VARCHAR, PRIMARY KEY (SNO, ANO))`,
	}
	for _, d := range ddl {
		if err := db.Exec(d); err != nil {
			t.Fatal(err)
		}
	}
	sup := [][]any{
		{1, "Smith", "Toronto", 100, "Active"},
		{2, "Jones", "Chicago", 200, "Active"},
		{3, "Smith", "New York", 300, "Active"},
	}
	for _, r := range sup {
		if err := db.Insert("SUPPLIER", r...); err != nil {
			t.Fatal(err)
		}
	}
	parts := [][]any{
		{1, 1, "bolt", 101, "RED"},
		{1, 2, "nut", nil, "BLUE"},
		{2, 1, "bolt", 103, "RED"},
		{3, 9, "cam", 104, "RED"},
	}
	for _, r := range parts {
		if err := db.Insert("PARTS", r...); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Insert("AGENTS", 1, 1, "Ann", "Ottawa"); err != nil {
		t.Fatal(err)
	}
	return db
}

func TestExecValidation(t *testing.T) {
	db := Open()
	if err := db.Exec("SELECT 1 FROM T"); err == nil {
		t.Error("Exec should reject queries")
	}
	if err := db.Exec("CREATE TABLE"); err == nil {
		t.Error("Exec should propagate parse errors")
	}
}

func TestInsertConversion(t *testing.T) {
	db := paperDB(t)
	if err := db.Insert("SUPPLIER", int64(4), "Kim", "Toronto", 1, "Active"); err != nil {
		t.Errorf("int64 insert failed: %v", err)
	}
	if err := db.Insert("SUPPLIER", 5, "Kim", nil, 1, "Active"); err != nil {
		t.Errorf("nil insert failed: %v", err)
	}
	if err := db.Insert("SUPPLIER", 3.14, "x", "y", 1, "z"); err == nil {
		t.Error("unsupported type should fail")
	}
	if err := db.Insert("SUPPLIER", 1, "dup", "Toronto", 1, "Active"); err == nil {
		t.Error("duplicate primary key should fail")
	}
}

func TestAnalyzePaperExamples(t *testing.T) {
	db := paperDB(t)
	a, err := db.Analyze(`SELECT DISTINCT S.SNO, P.PNO, P.PNAME FROM SUPPLIER S, PARTS P
		WHERE S.SNO = P.SNO AND P.COLOR = 'RED'`)
	if err != nil {
		t.Fatal(err)
	}
	if !a.DistinctRedundant || !a.Unique {
		t.Errorf("Example 1 should be redundant: %+v", a)
	}
	if len(a.KeysUsed["P"]) != 2 {
		t.Errorf("keys used = %v", a.KeysUsed)
	}

	a, err = db.Analyze(`SELECT DISTINCT S.SNAME, P.PNO, P.PNAME FROM SUPPLIER S, PARTS P
		WHERE S.SNO = P.SNO AND P.COLOR = 'RED'`)
	if err != nil {
		t.Fatal(err)
	}
	if a.DistinctRedundant {
		t.Error("Example 2 must keep its DISTINCT")
	}
	if a.MissingTable != "S" {
		t.Errorf("missing table = %q", a.MissingTable)
	}
}

func TestQueryAndBaselineAgree(t *testing.T) {
	db := paperDB(t)
	src := `SELECT DISTINCT S.SNO, P.PNO, P.PNAME FROM SUPPLIER S, PARTS P
		WHERE S.SNO = P.SNO AND P.COLOR = 'RED'`
	opt, err := db.Query(src)
	if err != nil {
		t.Fatal(err)
	}
	base, err := db.QueryBaseline(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(opt.Data) != 3 || len(base.Data) != 3 {
		t.Fatalf("rows: opt=%d base=%d", len(opt.Data), len(base.Data))
	}
	if len(opt.Rewrites) == 0 {
		t.Error("optimizer should report the DISTINCT elimination")
	}
	if len(base.Rewrites) != 0 {
		t.Error("baseline must not rewrite")
	}
	if opt.Stats.SortRuns != 0 {
		t.Error("optimized run should not sort")
	}
	// Both runs build the same join's hash table; the baseline also
	// files every result row in its duplicate-elimination table.
	if base.Stats.SortRuns != 0 || base.Stats.HashInserts <= opt.Stats.HashInserts {
		t.Errorf("baseline run should deduplicate, by hash: baseline %s, optimized %s",
			base.Stats.String(), opt.Stats.String())
	}
}

func TestQueryWithHosts(t *testing.T) {
	db := paperDB(t)
	rows, err := db.QueryWith(`SELECT ALL S.SNO, SNAME, P.PNO, PNAME
		FROM SUPPLIER S, PARTS P
		WHERE P.SNO = :SUPPLIER-NO AND S.SNO = P.SNO`,
		map[string]any{"SUPPLIER-NO": 1}, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows.Data) != 2 {
		t.Errorf("rows = %d", len(rows.Data))
	}
	if rows.Data[0][1] != "Smith" {
		t.Errorf("data = %v", rows.Data)
	}
	if _, err := db.QueryWith("SELECT S.SNO FROM SUPPLIER S WHERE S.SNO = :H",
		map[string]any{"H": 3.14}, true); err == nil {
		t.Error("bad host type should fail")
	}
}

func TestNullRoundTrip(t *testing.T) {
	db := paperDB(t)
	rows, err := db.Query(`SELECT P.OEM-PNO FROM PARTS P WHERE P.OEM-PNO IS NULL`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows.Data) != 1 || rows.Data[0][0] != nil {
		t.Errorf("NULL round trip = %v", rows.Data)
	}
}

func TestSuggest(t *testing.T) {
	db := paperDB(t)
	infos, err := db.Suggest(`SELECT ALL S.SNO, S.SNAME FROM SUPPLIER S
		WHERE EXISTS (SELECT * FROM PARTS P WHERE P.SNO = S.SNO AND P.COLOR = 'RED')`)
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) == 0 {
		t.Fatal("expected a suggestion")
	}
	if infos[0].Rule != "subquery-to-distinct-join" {
		t.Errorf("rule = %s", infos[0].Rule)
	}
	if !strings.Contains(infos[0].After, "SELECT DISTINCT") {
		t.Errorf("after = %s", infos[0].After)
	}
}

// TestOptionsFlowThrough pins both halves of the analyzer decision: a
// DB runs every sound extension, and the paper's Algorithm 1 as written
// (core.NewAnalyzer) is still there and proves none of these cases.
func TestOptionsFlowThrough(t *testing.T) {
	db := Open()
	for _, ddl := range []string{
		`CREATE TABLE R (K INTEGER, X INTEGER, Y INTEGER, PRIMARY KEY (K))`,
		`CREATE TABLE S (K INTEGER, Z INTEGER, PRIMARY KEY (K))`,
		`CREATE TABLE U (K INTEGER, X INTEGER, UNIQUE (K))`,
		`CREATE TABLE C (K INTEGER, T INTEGER NOT NULL, X INTEGER, PRIMARY KEY (K, T), CHECK (T = 1))`,
	} {
		if err := db.Exec(ddl); err != nil {
			t.Fatal(err)
		}
	}
	paper := core.NewAnalyzer(db.Store().Catalog())
	for _, c := range []struct{ extension, src string }{
		{"key FDs", "SELECT R.K FROM R R, S S WHERE R.X = S.K"},
		{"IS NULL", "SELECT U.X FROM U U WHERE U.K IS NULL"},
		{"CHECK", "SELECT C.K, C.X FROM C C"},
	} {
		a, err := db.Analyze(c.src)
		if err != nil {
			t.Fatal(err)
		}
		q, err := parser.ParseQuery(c.src)
		if err != nil {
			t.Fatal(err)
		}
		v, err := paper.AnalyzeQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		if !a.Unique || v.Unique {
			t.Errorf("%s: Open() proves %v, the paper's Algorithm 1 %v; want true, false: %s", c.extension, a.Unique, v.Unique, c.src)
		}
	}
}

func TestSetOpThroughFacade(t *testing.T) {
	db := paperDB(t)
	rows, err := db.Query(`SELECT ALL S.SNO FROM SUPPLIER S
		INTERSECT SELECT ALL A.SNO FROM AGENTS A`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows.Data) != 1 || rows.Data[0][0] != int64(1) {
		t.Errorf("intersect = %v", rows.Data)
	}
	if len(rows.Rewrites) == 0 {
		t.Error("intersect rewrite should fire through the façade")
	}
}

func TestStoreAccessor(t *testing.T) {
	db := paperDB(t)
	if db.Store() == nil || db.Store().MustTable("SUPPLIER").Len() != 3 {
		t.Error("Store accessor broken")
	}
}

func TestCreateIndexAndAccessPath(t *testing.T) {
	db := paperDB(t)
	if err := db.CreateIndex("SUPPLIER", "SNO_IX", "SNO"); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateIndex("NOPE", "X", "Y"); err == nil {
		t.Error("unknown table should fail")
	}
	if err := db.CreateIndex("SUPPLIER", "BAD", "NOPE"); err == nil {
		t.Error("unknown column should fail")
	}
	rows, err := db.Query("SELECT S.SNAME FROM SUPPLIER S WHERE S.SNO = 2")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows.Data) != 1 || rows.Data[0][0] != "Jones" {
		t.Errorf("data = %v", rows.Data)
	}
	if rows.Stats.IndexSeeks != 1 || rows.Stats.RowsScanned != 1 {
		t.Errorf("index path not used: %s", rows.Stats.String())
	}
}

func TestCheckExact(t *testing.T) {
	db := paperDB(t)
	u, _, err := db.CheckExact("SELECT S.SNO, S.SNAME FROM SUPPLIER S", 0)
	if err != nil {
		t.Fatal(err)
	}
	if !u {
		t.Error("key-projecting query must be exactly unique")
	}
	u, w, err := db.CheckExact("SELECT S.SNAME FROM SUPPLIER S", 0)
	if err != nil {
		t.Fatal(err)
	}
	if u || w == "" {
		t.Errorf("non-key projection must yield a witness: unique=%v w=%q", u, w)
	}
	if _, _, err := db.CheckExact("SELECT S.SNAME FROM SUPPLIER S", 5); err == nil {
		t.Error("tiny cap should fail with too-many-combinations")
	}
	if _, _, err := db.CheckExact("not sql", 0); err == nil {
		t.Error("parse errors should propagate")
	}
}

// The paper's examples through CheckExact on both schemas: every one
// the paper proves duplicate-free comes back unique, Example 2 — whose
// DISTINCT the paper keeps — comes back with a witness, and a constant
// outside the default values decides the same as one inside them. Each
// verdict is reached over rows that qualify: the domains hold the
// literals and host values the query compares its columns with.
func TestCheckExactPaperExamples(t *testing.T) {
	for _, schema := range []struct {
		name string
		ddl  []string
	}{{"bench", workload.BenchDDL}, {"paper", workload.PaperDDL}} {
		db := Open()
		for _, ddl := range schema.ddl {
			if err := db.Exec(ddl); err != nil {
				t.Fatal(err)
			}
		}
		for _, ex := range []string{"example1", "example2", "example3", "example4", "example6", "example10", "example11"} {
			u, w, err := db.CheckExact(workload.PaperQueries[ex], 0)
			if err != nil {
				t.Fatalf("%s %s: %v", schema.name, ex, err)
			}
			if want := ex != "example2"; u != want {
				t.Errorf("%s %s: unique = %v, want %v (witness %s)", schema.name, ex, u, want, w)
			}
			if !u && !strings.Contains(w, "RED") {
				t.Errorf("%s %s: the witness rows must qualify: %s", schema.name, ex, w)
			}
		}
		for _, budget := range []string{"1", "7"} {
			u, w, err := db.CheckExact("SELECT DISTINCT S.SNAME FROM SUPPLIER S WHERE S.BUDGET = "+budget, 0)
			if err != nil {
				t.Fatal(err)
			}
			if u || w == "" {
				t.Errorf("%s BUDGET = %s: unique = %v, want a witness", schema.name, budget, u)
			}
		}
	}
}

// TestColumnsAreTheCallersOwn: the column list a query returns is the
// caller's to change. The engine's is the compiled plan's, shared by
// every execution of the statement; a caller renaming a column of one
// answer must not rename it in the next one.
func TestColumnsAreTheCallersOwn(t *testing.T) {
	db := Open()
	if err := db.Exec(`CREATE TABLE T (A INTEGER, B INTEGER, PRIMARY KEY (A))`); err != nil {
		t.Fatal(err)
	}
	first, err := db.Query(`SELECT A, B FROM T`)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Join(first.Columns, ",")
	first.Columns[0] = "CLOBBERED"
	second, err := db.Query(`SELECT A, B FROM T`)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(second.Columns, ","); got != want {
		t.Errorf("columns after the first answer's were renamed: %s, want %s", got, want)
	}
}

// TestShapeKeysAreCopies: the lexer writes a statement's shape into its
// frame's buffer and the cache is probed with those bytes, so what is
// filed must be a copy. Two shapes one byte apart (< and >), compiled
// one after the other through the same frame, get two entries, and the
// first is still found under its own shape, answering as before, after
// the second has overwritten the buffer.
func TestShapeKeysAreCopies(t *testing.T) {
	db := paperDB(t)
	const lt, gt = `SELECT S.SNO FROM SUPPLIER S WHERE S.SNO < 2`, `SELECT S.SNO FROM SUPPLIER S WHERE S.SNO > 1`
	f := db.frames.get()
	compile := func(sql string) *statement {
		t.Helper()
		c, err := db.compile(f, sql, nil, true, false)
		if err != nil {
			t.Fatal(err)
		}
		return c.statement
	}
	first := compile(lt)
	second := compile(gt)
	if first == second || first.shape == second.shape || len(first.shape) != len(second.shape) {
		t.Fatalf("shapes %q and %q share an entry", first.shape, second.shape)
	}
	if want := `SELECT S.SNO FROM SUPPLIER S WHERE S.SNO < ?int`; first.shape != want {
		t.Errorf("the first statement's shape reads %q after the second was lexed, want %q", first.shape, want)
	}
	key := vcache.Key{Src: first.shape, CatVer: db.store.Catalog().Version(), Opts: db.planner(true).Opts.CompileBits()}
	if st, ok := db.stmts.Peek(key); !ok || st != first {
		t.Errorf("the first statement is not filed under its shape once the buffer is overwritten")
	}
	if again := compile(`select s.sno from supplier s where s.sno < 5`); again != first {
		t.Errorf("a respelling of the first shape compiled anew (or found the second's entry)")
	}
	db.recycle(f, nil)
	for sql, want := range map[string]int{lt: 1, gt: 2} {
		rows, err := db.Query(sql)
		if err != nil || len(rows.Data) != want {
			t.Errorf("%s: %v rows, %v; want %d", sql, rows, err, want)
		}
	}
	if hits, misses := db.PlanCacheCounters(); misses != 2 {
		t.Errorf("%d hits, %d misses: want the two shapes compiled once each", hits, misses)
	}
}
