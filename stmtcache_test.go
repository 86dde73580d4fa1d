package uniqopt_test

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"uniqopt"
	"uniqopt/internal/core"
	"uniqopt/internal/plan"
	"uniqopt/internal/sql/ast"
	"uniqopt/internal/sql/lexer"
	"uniqopt/internal/sql/parser"
	"uniqopt/internal/value"
	"uniqopt/internal/workload"
)

// The compiled-statement cache's executed oracle: every statement is
// also run the way statements ran before the cache existed — the text
// parsed as written, literals in the AST, compiled and executed by a
// planner that shares nothing with the database — and the two answers
// must agree in everything a user can see.

// outcome is the user-visible result of one statement.
type outcome struct {
	cols     []string
	data     [][]any
	rewrites []uniqopt.RewriteInfo
	tree     string // the plan as plain EXPLAIN renders it
	err      string
}

// uncached runs sql through the pre-cache path under the analyzer every
// DB runs.
func uncached(db *uniqopt.DB, sql string, hosts map[string]any, optimize bool) outcome {
	q, err := parser.ParseQuery(sql)
	if err != nil {
		return outcome{err: err.Error()}
	}
	hv := map[string]value.Value{}
	for k, v := range hosts {
		if hv[k], err = uniqopt.Convert(v); err != nil {
			return outcome{err: err.Error()}
		}
	}
	p := plan.NewPlanner(db.Store(), plan.Options{ApplyRewrites: optimize,
		Core: core.Options{UseKeyFDs: true, BindIsNull: true, UseCheckConstraints: true}})
	c, err := p.Compile(q)
	if err != nil {
		return outcome{err: err.Error()}
	}
	vals, err := c.Bind(func(name string) (value.Value, bool) {
		v, ok := hv[name]
		return v, ok
	})
	if err != nil {
		return outcome{err: err.Error()}
	}
	tree := c.Render(vals).Format(false)
	res, err := p.Execute(context.Background(), plan.NewFrame(), c, vals, false)
	if err != nil {
		return outcome{tree: tree, err: err.Error()}
	}
	out := outcome{cols: res.Rel.Cols, tree: tree, data: make([][]any, len(res.Rel.Rows))}
	for i, row := range res.Rel.Rows {
		out.data[i] = make([]any, len(row))
		for j, v := range row {
			switch v.Kind() {
			case value.KindInt:
				out.data[i][j] = v.AsInt()
			case value.KindString:
				out.data[i][j] = v.AsString()
			case value.KindBool:
				out.data[i][j] = v.AsBool()
			}
		}
	}
	for _, ap := range res.Rewrites {
		out.rewrites = append(out.rewrites, uniqopt.RewriteInfo{Rule: string(ap.Rule),
			Description: ap.Description, Before: ap.Before, After: ap.After})
	}
	return out
}

// cached runs sql through the database's public entry point.
func cached(db *uniqopt.DB, sql string, hosts map[string]any, optimize bool) outcome {
	var out outcome
	if e, err := db.ExplainWith(context.Background(), sql, hosts, optimize, false); err == nil {
		out.tree = e.Root.Format(false)
	}
	rows, err := db.QueryWithContext(context.Background(), sql, hosts, optimize)
	if err != nil {
		out.err = err.Error()
		return out
	}
	out.cols, out.data, out.rewrites = rows.Columns, rows.Data, rows.Rewrites
	return out
}

func requireSameOutcome(t *testing.T, label string, got, want outcome) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: cached and uncached disagree\n--- cached\n%+v\n--- uncached\n%+v", label, got, want)
	}
}

// adhocShapes are the seven embedded_adhoc statement classes of the
// repository benchmark, drawing their literals from r, plus the
// statements whose errors quote a literal.
var adhocShapes = []func(r *rand.Rand) string{
	func(r *rand.Rand) string {
		return fmt.Sprintf(`SELECT DISTINCT S.SNO, P.PNO, P.PNAME FROM SUPPLIER S, PARTS P
			WHERE S.SNO = P.SNO AND P.COLOR = 'RED' AND P.OEM-PNO < %d`, r.Intn(6000))
	},
	func(r *rand.Rand) string {
		return fmt.Sprintf(`SELECT DISTINCT S.SNAME, P.PNO, P.PNAME FROM SUPPLIER S, PARTS P
			WHERE S.SNO = P.SNO AND P.COLOR = 'RED' AND P.OEM-PNO < %d`, r.Intn(6000))
	},
	func(r *rand.Rand) string {
		return fmt.Sprintf(`SELECT DISTINCT S.SNO, SNAME, P.PNO, PNAME FROM SUPPLIER S, PARTS P
			WHERE P.SNO = %d AND S.SNO = P.SNO AND P.OEM-PNO > %d`, 1+r.Intn(45), r.Intn(6000))
	},
	func(r *rand.Rand) string {
		return fmt.Sprintf(`SELECT ALL S.SNO, S.SNAME FROM SUPPLIER S
			WHERE S.SNAME = '%s' AND S.BUDGET < %d AND
			EXISTS (SELECT * FROM PARTS P WHERE S.SNO = P.SNO AND P.PNO = %d)`,
			// A doubled quote, a string that spells a lifted name, and the
			// empty string: each must come back byte for byte in the
			// rewrite texts.
			[]string{"Smith", "Jones", "O''Neil", "supplier-7", ":$2", ""}[r.Intn(6)], r.Intn(1200), 1+r.Intn(5))
	},
	func(r *rand.Rand) string {
		cities := []string{"Chicago", "New York", "Toronto", "Ottawa", "Hull", "Paris", "Waterloo"}
		return fmt.Sprintf(`SELECT ALL S.SNO FROM SUPPLIER S WHERE S.SCITY = '%s' AND S.BUDGET > %d
			INTERSECT
			SELECT ALL A.SNO FROM AGENTS A WHERE A.ACITY = '%s' OR A.ACITY = '%s'`,
			cities[r.Intn(7)], r.Intn(1000), cities[r.Intn(7)], cities[r.Intn(7)])
	},
	func(r *rand.Rand) string {
		return fmt.Sprintf(`SELECT DISTINCT S.SNO, P.PNO FROM SUPPLIER S, PARTS P
			WHERE S.SNO = P.SNO AND (P.COLOR = 'RED' AND P.OEM-PNO < %d OR P.PNO = %d AND P.OEM-PNO > %d)`,
			r.Intn(6000), 1+r.Intn(5), r.Intn(6000))
	},
	func(r *rand.Rand) string {
		return fmt.Sprintf(`SELECT ALL A.SNO, A.ANO, P.PNO, S.SNAME FROM AGENTS A, PARTS P, SUPPLIER S
			WHERE A.SNO = P.SNO AND P.SNO = S.SNO AND S.SNO = %d AND P.OEM-PNO <> %d`, 1+r.Intn(45), r.Intn(6000))
	},
	// A comparison between kinds fails at evaluation, quoting itself —
	// and the string it quotes, however it is spelled.
	func(r *rand.Rand) string {
		return fmt.Sprintf(`SELECT S.SNO FROM SUPPLIER S WHERE S.SNO = '%s' AND S.BUDGET > %d`,
			[]string{fmt.Sprint("no-", r.Intn(9)), "O''Neil", ":$2", ""}[r.Intn(4)], r.Intn(9))
	},
	// Syntax errors that name a literal token, and one past int64.
	func(r *rand.Rand) string { return fmt.Sprintf(`SELECT %d FROM SUPPLIER`, r.Intn(9)) },
	func(r *rand.Rand) string {
		return fmt.Sprintf(`SELECT S.SNO FROM SUPPLIER S WHERE S.SNO = %d99999999999999999999`, 1+r.Intn(9))
	},
	func(r *rand.Rand) string {
		return fmt.Sprintf(`SELECT S.SNO FROM SUPPLIER S WHERE S.NOPE = %d`, r.Intn(9))
	},
}

// shapeDB is a small supplier database: the sweep below runs 200
// literal vectors per shape through six configurations.
func shapeDB(t testing.TB, opts uniqopt.Options) *uniqopt.DB {
	t.Helper()
	cfg := workload.DefaultConfig()
	cfg.Suppliers, cfg.PartsPerSupplier, cfg.AgentsPerSupplier = 45, 5, 2
	fresh, err := workload.NewDB(cfg)
	if err != nil {
		t.Fatal(err)
	}
	db := uniqopt.OpenWith(opts)
	for _, ddl := range workload.BenchDDL {
		if err := db.Exec(ddl); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range []string{"SUPPLIER", "PARTS", "AGENTS"} {
		src := fresh.MustTable(name)
		for i := 0; i < src.Len(); i++ {
			if err := db.InsertRow(name, src.Row(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := db.CreateIndex("PARTS", "PARTS_SNO", "SNO"); err != nil {
		t.Fatal(err)
	}
	return db
}

// TestCachedEqualsUncached is the differential suite: rows, column
// names, rewrites (rule, description, before, after), the rendered plan
// tree and error text of the cached path equal the uncached path's,
// over the paper examples and the benchmark's literal shapes × 200
// seeded literal vectors, at the default batch size and at three rows.
func TestCachedEqualsUncached(t *testing.T) {
	modes := []struct {
		name  string
		batch int
	}{
		// "serial" and "parallel" once named two worker pools; with no
		// pool they are the same mode, under the names they have always
		// reported.
		{"serial", 0},
		{"parallel", 0},
		// Batches of three rows: every operator streams many of them.
		{"streaming", 3},
	}
	for _, m := range modes {
		t.Run(m.name, func(t *testing.T) {
			setStreamBatch(t, m.batch)
			paper := goldenDB(t)
			for _, name := range paperQueryNames() {
				sql := workload.PaperQueries[name]
				for _, optimize := range []bool{true, false} {
					// Twice: the second run is a statement-cache hit.
					for run := 0; run < 2; run++ {
						requireSameOutcome(t, fmt.Sprintf("%s optimize=%v run %d", name, optimize, run),
							cached(paper, sql, goldenHosts, optimize), uncached(paper, sql, goldenHosts, optimize))
					}
				}
			}

			db := shapeDB(t, uniqopt.Options{})
			r := rand.New(rand.NewSource(16))
			for i, shape := range adhocShapes {
				for v := 0; v < 200; v++ {
					sql := shape(r)
					requireSameOutcome(t, fmt.Sprintf("shape %d vector %d: %s", i, v, sql),
						cached(db, sql, nil, true), uncached(db, sql, nil, true))
				}
			}
			// Every vector goes through the cache twice, for its plan and
			// for its rows. Each of the 8 shapes that execute compiled once
			// and then hit; the syntax error and the unknown column fail to
			// compile every time (a failed compile is not cached), and the
			// out-of-range literal never reaches the cache.
			if hits, misses := db.PlanCacheCounters(); hits != 8*(2*200-1) || misses != 8+2*2*200 {
				t.Errorf("statement cache: %d hits / %d misses, want %d / %d", hits, misses, 8*(2*200-1), 8+2*2*200)
			}
			if n := len(db.Metrics().Shapes); n != 8 {
				t.Errorf("metrics registry holds %d shapes, want the 8 that execute", n)
			}
		})
	}
}

// TestStatementCacheConcurrentLiterals runs one shape from many
// goroutines with different literals: the shared entry is immutable,
// the literal vector is per call, so each caller sees its own rows and
// its own literals in the rewritten text. Run under -race.
func TestStatementCacheConcurrentLiterals(t *testing.T) {
	db := shapeDB(t, uniqopt.Options{})
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				sno := 1 + (w*50+i)%45
				sql := fmt.Sprintf(`SELECT DISTINCT S.SNO, S.SNAME FROM SUPPLIER S WHERE S.SNO = %d`, sno)
				rows, err := db.Query(sql)
				if err != nil {
					t.Error(err)
					return
				}
				if len(rows.Data) != 1 || rows.Data[0][0] != int64(sno) {
					t.Errorf("SNO = %d returned %v", sno, rows.Data)
					return
				}
				e, err := db.Explain(sql)
				if err != nil {
					t.Error(err)
					return
				}
				want := fmt.Sprintf("S.SNO = %d", sno)
				if len(rows.Rewrites) != 1 || !strings.HasSuffix(rows.Rewrites[0].After, want) ||
					!strings.Contains(e.Root.Format(false), want) {
					t.Errorf("SNO = %d: another call's literal leaked: %+v\n%s", sno, rows.Rewrites, e.Root.Format(false))
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if hits, misses := db.PlanCacheCounters(); hits+misses != 2*workers*50 || hits < 2*workers*50-workers {
		t.Errorf("statement cache %d hits / %d misses over %d calls of one shape", hits, misses, 2*workers*50)
	}
}

// TestStatementShapeKeys pins what does and does not share a compiled
// statement.
func TestStatementShapeKeys(t *testing.T) {
	db := shapeDB(t, uniqopt.Options{})
	// compiles reports how many statement-cache misses f caused.
	compiles := func(f func()) int64 {
		_, m0 := db.PlanCacheCounters()
		f()
		_, m1 := db.PlanCacheCounters()
		return m1 - m0
	}
	query := func(d *uniqopt.DB, sql string, hosts map[string]any, optimize bool) *uniqopt.Rows {
		t.Helper()
		rows, err := d.QueryWithContext(context.Background(), sql, hosts, optimize)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		return rows
	}

	// Letter case, whitespace, comments and literal values are not shape.
	if n := compiles(func() {
		query(db, `SELECT S.SNO FROM SUPPLIER S WHERE S.SNO = 7 AND S.SNAME <> 'x'`, nil, true)
		query(db, "select s.sno\n\tfrom supplier s -- the same\n where s.sno=8 and s.sname!='yy'", nil, true)
	}); n != 1 {
		t.Errorf("case/whitespace/literal variants compiled %d times, want 1", n)
	}
	// A literal's kind is.
	if n := compiles(func() {
		query(db, `SELECT S.SNO FROM SUPPLIER S WHERE S.SNAME = 'a'`, nil, true)
		db.Query(`SELECT S.SNO FROM SUPPLIER S WHERE S.SNAME = 1`) // fails at evaluation; still its own shape
	}); n != 2 {
		t.Errorf("int and string literal in one position compiled %d times, want 2", n)
	}
	// NULL, TRUE and FALSE are not lifted: they stay in the shape.
	if n := compiles(func() {
		query(db, `SELECT S.SCITY FROM SUPPLIER S WHERE S.SNAME = NULL`, nil, true)
		query(db, `SELECT S.SCITY FROM SUPPLIER S WHERE S.SNAME = 'NULL'`, nil, true)
		query(db, `SELECT S.SCITY FROM SUPPLIER S WHERE TRUE`, nil, true)
		query(db, `SELECT S.SCITY FROM SUPPLIER S WHERE FALSE`, nil, true)
	}); n != 4 {
		t.Errorf("NULL / 'NULL' / TRUE / FALSE compiled %d times, want 4", n)
	}
	if rows := query(db, `SELECT S.SCITY FROM SUPPLIER S WHERE S.SNAME = NULL`, nil, true); len(rows.Data) != 0 {
		t.Errorf("= NULL matched %d rows", len(rows.Data))
	}

	// A user's binding cannot reach a lifted literal: the lexer has no
	// '$', and a stray "$1" key in the map loses to the literal.
	rows := query(db, `SELECT S.SNO FROM SUPPLIER S WHERE S.SNO = 7 AND S.BUDGET >= :B`,
		map[string]any{"$1": 8, "B": 0}, true)
	if len(rows.Data) != 1 || rows.Data[0][0] != int64(7) {
		t.Errorf("literal 7 with a user \"$1\" binding returned %v", rows.Data)
	}
	if _, err := db.Query(`SELECT S.SNO FROM SUPPLIER S WHERE S.SNO = :$1`); err == nil ||
		!strings.Contains(err.Error(), "lex error") {
		t.Errorf(":$1 in SQL text: err = %v, want a lex error", err)
	}

	// optimize on and off never share an entry; a view, which differs
	// only in budgets, always shares its parent's. That holds for an entry
	// reached by its shape (the literal 3) and for one reached by its own
	// text (literal-free, not in canonical spelling).
	const distinct = `SELECT DISTINCT S.SNO, S.SNAME FROM SUPPLIER S WHERE S.SNO = 3`
	for _, sql := range []string{distinct, "select distinct S.SNO, S.SNAME\nfrom SUPPLIER S where S.SNO = :N -- by text"} {
		hosts := map[string]any{"N": 3}
		for round, want := range []int64{2, 0} {
			if n := compiles(func() {
				if r := query(db, sql, hosts, true); len(r.Rewrites) != 1 {
					t.Errorf("optimized run: rewrites = %+v", r.Rewrites)
				}
				if r := query(db, sql, hosts, false); len(r.Rewrites) != 0 {
					t.Errorf("baseline run served the optimized statement: %+v", r.Rewrites)
				}
				query(db.View(uniqopt.Options{MaxRows: 1000, MemBudget: 1 << 20}), sql, hosts, true)
			}); n != want {
				t.Errorf("round %d of optimize/baseline/budget-only view compiled %d times, want %d: %s", round, n, want, sql)
			}
		}
	}
	// CREATE TABLE bypasses the cache, keeps its literals, and moves the
	// catalog version, which invalidates every statement.
	if n := compiles(func() {
		if err := db.Exec(`CREATE TABLE T (A INTEGER, B VARCHAR(30), CHECK (A > 5), PRIMARY KEY (A))`); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("CREATE TABLE consulted the statement cache %d times", n)
	}
	if err := db.Exec(`INSERT INTO T VALUES (5, 'five')`); err == nil {
		t.Error("CHECK (A > 5) lost its literal: A = 5 was accepted")
	}
	if n := compiles(func() { query(db, distinct, nil, true) }); n != 1 {
		t.Errorf("statement compiled before the DDL was served after it (%d compiles)", n)
	}
	// A failed compile is not cached: it fails the same way again.
	for i := 0; i < 2; i++ {
		if n := compiles(func() {
			if _, err := db.Query(`SELECT S.NOPE FROM SUPPLIER S WHERE S.SNO = 1`); err == nil {
				t.Error("unknown column compiled")
			}
		}); n != 1 {
			t.Errorf("attempt %d at a failing statement: %d compiles, want 1", i, n)
		}
	}
}

// TestStatementCacheInvalidatedByEachDDLKind walks one statement
// through every kind of schema change: each bumps the catalog version,
// so the next execution compiles again instead of being served a
// statement whose verdicts and plan predate the change.
func TestStatementCacheInvalidatedByEachDDLKind(t *testing.T) {
	db := shapeDB(t, uniqopt.Options{})
	// One statement reached through its shape entry, one — literal-free,
	// not in canonical spelling — through its text entry.
	texts := []string{
		`SELECT DISTINCT S.SNAME, S.SCITY FROM SUPPLIER S WHERE S.SNO < 9`,
		"select distinct S.SNAME, S.SCITY from SUPPLIER S\n\twhere S.SNO < :N",
	}
	supplier := db.Store().MustTable("SUPPLIER")
	kinds := []struct {
		name string
		ddl  func() error
	}{
		{"CreateTable", func() error { return db.Exec(`CREATE TABLE EXTRA (ID INTEGER, PRIMARY KEY (ID))`) }},
		{"CreateIndex", func() error { return db.CreateIndex("SUPPLIER", "S_CITY", "SCITY") }},
		{"AddKey", func() error { return supplier.Schema.AddKey(false, "SNAME", "SCITY") }},
		{"DropKey", func() error { return supplier.Schema.DropKey(len(supplier.Schema.Keys) - 1) }},
		{"AddCheck", func() error {
			return supplier.Schema.AddCheck(&ast.Compare{Op: ast.GeOp,
				L: &ast.ColumnRef{Column: "SNO"}, R: &ast.IntLit{V: 0}})
		}},
		{"AddForeignKey", func() error {
			return db.Store().Catalog().AddForeignKey(db.Store().MustTable("EXTRA").Schema,
				[]string{"ID"}, "SUPPLIER", []string{"SNO"})
		}},
	}
	run := func(sql string) (rewrites int, hit bool) {
		t.Helper()
		h0, _ := db.PlanCacheCounters()
		rows, err := db.QueryWith(sql, map[string]any{"N": 9}, true)
		if err != nil {
			t.Fatal(err)
		}
		h1, _ := db.PlanCacheCounters()
		return len(rows.Rewrites), h1 > h0
	}
	for _, sql := range texts {
		run(sql)
	}
	for _, k := range kinds {
		for _, sql := range texts {
			if _, hit := run(sql); !hit {
				t.Fatalf("before %s: a repeated statement missed: %s", k.name, sql)
			}
		}
		if err := k.ddl(); err != nil {
			t.Fatalf("%s: %v", k.name, err)
		}
		for _, sql := range texts {
			rewrites, hit := run(sql)
			if hit {
				t.Errorf("%s: the statement compiled under the old schema was served: %s", k.name, sql)
			}
			// (SNAME, SCITY) is a key only between AddKey and DropKey.
			if want := map[string]int{"AddKey": 1}[k.name]; rewrites != want {
				t.Errorf("after %s: %d rewrites, want %d: %s", k.name, rewrites, want, sql)
			}
		}
	}
}

// TestInsertThroughStatementCache: single-row INSERTs of one shape
// share one parsed statement, and the literals — NULL, TRUE/FALSE and
// host variables beside them — land in the right columns.
func TestInsertThroughStatementCache(t *testing.T) {
	db := uniqopt.Open()
	if err := db.Exec(`CREATE TABLE T (A INTEGER, B VARCHAR(30), C BOOLEAN, D INTEGER, PRIMARY KEY (A))`); err != nil {
		t.Fatal(err)
	}
	_, m0 := db.PlanCacheCounters()
	for i := 0; i < 20; i++ {
		n, err := db.ExecWith(fmt.Sprintf(`insert into t values (%d, 'row ''%d''', TRUE, :D)`, i, i),
			map[string]any{"D": i * 10})
		if err != nil || n != 1 {
			t.Fatalf("insert %d: n=%d err=%v", i, n, err)
		}
	}
	if err := db.Exec(`INSERT INTO T VALUES (100, NULL, FALSE, 7), (101, 'two', NULL, 8)`); err != nil {
		t.Fatal(err)
	}
	if _, m1 := db.PlanCacheCounters(); m1-m0 != 2 {
		t.Errorf("21 INSERTs of 2 shapes parsed %d times", m1-m0)
	}
	rows, err := db.Query(`SELECT A, B, C, D FROM T WHERE A = 7 OR A >= 100`)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]any{{int64(7), "row '7'", true, int64(70)}, {int64(100), nil, false, int64(7)}, {int64(101), "two", nil, int64(8)}}
	if !reflect.DeepEqual(rows.Data, want) {
		t.Errorf("rows = %v, want %v", rows.Data, want)
	}
	// Errors keep their text, and a statement is refused by kind whether
	// or not its shape is already cached.
	if err := db.Exec(`INSERT INTO T VALUES (7, 'dup', TRUE, 0)`); err == nil || !strings.Contains(err.Error(), "7") {
		t.Errorf("duplicate key: err = %v", err)
	}
	for i := 0; i < 2; i++ {
		if _, err := db.Query(`INSERT INTO T VALUES (200, 'q', TRUE, 0)`); err == nil ||
			err.Error() != "parser: statement is *ast.Insert, not a query" {
			t.Errorf("Query(INSERT): err = %v", err)
		}
		if err := db.Exec(`SELECT A FROM T WHERE A = 1`); err == nil ||
			err.Error() != "uniqopt: Exec accepts CREATE TABLE and INSERT; use Query for queries" {
			t.Errorf("Exec(SELECT): err = %v", err)
		}
		db.Query(`SELECT A FROM T WHERE A = 1`)
		db.Exec(`INSERT INTO T VALUES (200, 'q', TRUE, 0)`)
	}
	// The same on literal-free texts, whose warm entries answer to the
	// text itself.
	const insHost, selHost = `insert into T values (:A, :B, TRUE, :D)`, `select A from T where A = :A`
	hosts := map[string]any{"A": 300, "B": "host", "D": nil}
	for i := 0; i < 3; i++ {
		if _, err := db.QueryWith(insHost, hosts, true); err == nil ||
			err.Error() != "parser: statement is *ast.Insert, not a query" {
			t.Errorf("round %d Query(host-variable INSERT): err = %v", i, err)
		}
		if _, err := db.ExecWith(selHost, hosts); err == nil ||
			err.Error() != "uniqopt: Exec accepts CREATE TABLE and INSERT; use Query for queries" {
			t.Errorf("round %d Exec(host-variable SELECT): err = %v", i, err)
		}
		hosts["A"] = 300 + i
		if n, err := db.ExecWith(insHost, hosts); err != nil || n != 1 {
			t.Errorf("round %d host-variable INSERT: n=%d err=%v", i, n, err)
		}
		if rows, err := db.QueryWith(selHost, hosts, true); err != nil || len(rows.Data) != 1 {
			t.Errorf("round %d host-variable SELECT: %v err=%v", i, rows, err)
		}
	}
	// Every binding is type-checked, used or not, warm as cold; a missing
	// one is refused before any tuple is inserted.
	hosts["UNUSED"] = 1.5
	if _, err := db.ExecWith(insHost, hosts); err == nil || err.Error() != "uniqopt: host :UNUSED: unsupported Go type float64" {
		t.Errorf("unsupported type in an unused host: err = %v", err)
	}
	if _, err := db.ExecWith(insHost, map[string]any{"A": 400, "B": "b"}); err == nil || err.Error() != "uniqopt: unbound host variable :D" {
		t.Errorf("missing host: err = %v", err)
	}
}

// queryOutcome and execOutcome run sql through the two public entry
// points and keep what a user can see of the result.
func queryOutcome(db *uniqopt.DB, sql string, hosts map[string]any) outcome {
	rows, err := db.QueryWithContext(context.Background(), sql, hosts, true)
	if err != nil {
		return outcome{err: err.Error()}
	}
	return outcome{cols: rows.Columns, data: rows.Data, rewrites: rows.Rewrites}
}

func execOutcome(db *uniqopt.DB, sql string, hosts map[string]any) outcome {
	n, err := db.ExecWith(sql, hosts)
	out := outcome{data: [][]any{{n}}}
	if err != nil {
		out.err = err.Error()
	}
	return out
}

// execWarmCold runs sql as a write on warm, a caching database, and on
// cold, an identically built one whose catalog version it moves first:
// no entry cold filed before can serve the call, so cold compiles every
// time. Bumping the version changes no table a statement could name.
// Every call warm's statement cache counts must be a miss on cold's.
func execWarmCold(t testing.TB, warm, cold *uniqopt.DB, sql string, hosts map[string]any) (w, c outcome) {
	t.Helper()
	cold.Store().Catalog().Bump()
	wh0, wm0 := warm.PlanCacheCounters()
	ch0, cm0 := cold.PlanCacheCounters()
	w, c = execOutcome(warm, sql, hosts), execOutcome(cold, sql, hosts)
	wh1, wm1 := warm.PlanCacheCounters()
	ch1, cm1 := cold.PlanCacheCounters()
	if ch1 != ch0 || cm1-cm0 != wh1-wh0+wm1-wm0 {
		t.Fatalf("Exec(%q): the reference counted %d hits, %d misses; want 0 hits, %d misses",
			sql, ch1-ch0, cm1-cm0, wh1-wh0+wm1-wm0)
	}
	return w, c
}

// spellings returns sql with a leading comment, with its whitespace
// collapsed, and with everything outside string literals in lower case:
// other texts of the same shape.
func spellings(sql string) []string {
	lower := []byte(sql)
	inString := false
	for i, c := range lower {
		if c == '\'' {
			inString = !inString
		}
		if !inString && 'A' <= c && c <= 'Z' {
			lower[i] = c + 'a' - 'A'
		}
	}
	return []string{sql, "-- again\n" + sql, strings.Join(strings.Fields(sql), " "), string(lower)}
}

// TestTextEntryEqualsFreshDB: for every paper query and every spelling
// of it, the first call (compiles, files the entry), the second (served
// by the entry: by its text when the statement is literal-free) and a
// call on a database that has never seen the statement agree in rows,
// rewrites and error text. The same for statements that fail, and for
// the INSERT forms, where an identically built database that compiles
// every call (execWarmCold) is the cold reference for the sequence.
func TestTextEntryEqualsFreshDB(t *testing.T) {
	queries := []string{
		`SELECT S.NOPE FROM SUPPLIER S WHERE S.SNO = :N`,        // fails to compile
		`SELECT S.SNO FROM SUPPLIER S WHERE S.SNO = :NOT-BOUND`, // fails at execution
		`SELECT S.SNO FROM SUPPLIER S WHERE S.SNAME = :N`,       // kinds differ: fails at evaluation
		`SELECT S.SNO FROM SUPPLIER S WHERE S.SNO = :N AND`,     // syntax error
		`SELECT S.SNO FROM SUPPLIER S WHERE S.SNO = ?int`,       // spells a shape
		`INSERT INTO AGENTS VALUES (:N, :N, 'a', 'Hull')`,       // not a query
		`CREATE TABLE X (A INTEGER, PRIMARY KEY (A))`,           // not a query
		``, // nothing
	}
	for _, name := range paperQueryNames() {
		queries = append(queries, workload.PaperQueries[name])
	}
	db := shapeDB(t, uniqopt.Options{})
	for _, q := range queries {
		for _, sql := range spellings(q) {
			h0, m0 := db.PlanCacheCounters()
			first, second := queryOutcome(db, sql, goldenHosts), queryOutcome(db, sql, goldenHosts)
			fresh := queryOutcome(shapeDB(t, uniqopt.Options{}), sql, goldenHosts)
			if !reflect.DeepEqual(first, second) || !reflect.DeepEqual(first, fresh) {
				t.Fatalf("%q\n--- first\n%+v\n--- second\n%+v\n--- fresh database\n%+v", sql, first, second, fresh)
			}
			// A statement that executed was served the second time; one
			// that failed to compile was not remembered.
			h1, m1 := db.PlanCacheCounters()
			if calls := h1 - h0 + m1 - m0; calls > 2 || (first.cols != nil && h1 == h0) {
				t.Errorf("%q: %d hits, %d misses over two calls", sql, h1-h0, m1-m0)
			}
		}
	}

	inserts := []string{
		`INSERT INTO AGENTS VALUES (:S, :A, :NAME, :CITY)`,
		`INSERT INTO AGENTS VALUES (:S, 901, 'lit', :CITY)`,
		`INSERT INTO AGENTS VALUES (:S, 902, NULL, NULL), (:S, 903, :NAME, 'Hull'), (:S, 902, 'dup', NULL)`,
		`INSERT INTO AGENTS VALUES (:S, :A, :NAME)`,             // arity
		`INSERT INTO AGENTS VALUES (:S, :MISSING, :NAME, NULL)`, // unbound
		`INSERT INTO AGENTS VALUES (4000, 1, 'fk', NULL)`,       // no such supplier
		`INSERT INTO AGENTS VALUES (:S, 99999999999999999999, 'big', NULL)`,
		`INSERT INTO AGENTS VALUES (:S, ?int, ?str, NULL)`,
		`SELECT A.ANO FROM AGENTS A WHERE A.SNO = :S`, // not a write
	}
	hosts := map[string]any{"S": 7, "A": 900, "NAME": "host", "CITY": "Ottawa"}
	warm, cold := shapeDB(t, uniqopt.Options{}), shapeDB(t, uniqopt.Options{})
	for _, ins := range inserts {
		for _, sql := range spellings(ins) {
			for call := 0; call < 2; call++ {
				if w, c := execWarmCold(t, warm, cold, sql, hosts); !reflect.DeepEqual(w, c) {
					t.Fatalf("call %d of %q\n--- caching handle\n%+v\n--- compiling every time\n%+v", call, sql, w, c)
				}
			}
		}
	}
	if h, _ := warm.PlanCacheCounters(); h == 0 {
		t.Error("the caching handle was never served from its statement cache")
	}
	want := queryOutcome(cold, `SELECT A.SNO, A.ANO, A.ANAME, A.ACITY FROM AGENTS A WHERE A.SNO = 7`, nil)
	if got := queryOutcome(warm, `SELECT A.SNO, A.ANO, A.ANAME, A.ACITY FROM AGENTS A WHERE A.SNO = 7`, nil); !reflect.DeepEqual(got.data, want.data) || len(got.data) < 5 {
		t.Errorf("AGENTS of supplier 7 after the inserts:\n%v\nwant\n%v", got.data, want.data)
	}
}

// TestTextSpellingAShape: a text that is, byte for byte, the shape of a
// cached statement. With literals in the shape the text contains '?',
// which the lexer refuses — before the shape was cached and after. With
// none, the text is its own shape and shares the entry.
func TestTextSpellingAShape(t *testing.T) {
	db := shapeDB(t, uniqopt.Options{})
	if err := db.Exec(`CREATE TABLE T (A INTEGER, B VARCHAR(30), PRIMARY KEY (A))`); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		sql   string
		write bool
	}{
		{`SELECT S.SNO FROM SUPPLIER S WHERE S.SNO = 7`, false},
		{`SELECT S.SNO FROM SUPPLIER S WHERE S.SNAME = 'Smith' AND S.SNO < 9`, false},
		{`INSERT INTO T VALUES (1, 'one')`, true},
	} {
		shape, lits, err := lexer.Shape(c.sql)
		if err != nil || len(lits) == 0 || !strings.Contains(shape, "?") {
			t.Fatalf("Shape(%q) = %q, %d literals, %v", c.sql, shape, len(lits), err)
		}
		run := queryOutcome
		if c.write {
			run = execOutcome
		}
		cold := run(db, shape, nil)
		if !strings.HasPrefix(cold.err, "lex error") {
			t.Fatalf("%q cold: %+v, want a lex error", shape, cold)
		}
		if out := run(db, c.sql, nil); out.err != "" {
			t.Fatalf("%q: %s", c.sql, out.err)
		}
		h0, m0 := db.PlanCacheCounters()
		if warm := run(db, shape, nil); !reflect.DeepEqual(warm, cold) {
			t.Errorf("%q with its shape cached: %+v, want what it gave cold: %+v", shape, warm, cold)
		}
		if h1, m1 := db.PlanCacheCounters(); h1 != h0 || m1 != m0 {
			t.Errorf("%q: a text the lexer refuses was counted (%d hits, %d misses)", shape, h1-h0, m1-m0)
		}
	}

	const sql = "select S.SNO from SUPPLIER S\n where S.SNO = :N"
	shape, _, _ := lexer.Shape(sql)
	_, m0 := db.PlanCacheCounters()
	for _, text := range []string{sql, shape, sql, shape} {
		if out := queryOutcome(db, text, map[string]any{"N": 7}); out.err != "" || len(out.data) != 1 {
			t.Fatalf("%q: %+v", text, out)
		}
	}
	if _, m1 := db.PlanCacheCounters(); m1-m0 != 1 {
		t.Errorf("a literal-free text and its shape compiled %d times, want once", m1-m0)
	}
}

// TestMetricsKeyOnShapesNotTexts: a thousand texts of one literal-free
// shape each file a text entry, and the registry still holds one shape.
func TestMetricsKeyOnShapesNotTexts(t *testing.T) {
	db := shapeDB(t, uniqopt.Options{})
	hosts := map[string]any{"N": 7}
	for round := 0; round < 2; round++ {
		for i := 0; i < 1000; i++ {
			sql := "SELECT S.SNO FROM SUPPLIER S" + strings.Repeat(" ", i) + " WHERE S.SNO = :N"
			if out := queryOutcome(db, sql, hosts); out.err != "" || len(out.data) != 1 {
				t.Fatalf("variant %d: %+v", i, out)
			}
		}
	}
	if hits, misses := db.PlanCacheCounters(); hits != 1999 || misses != 1 {
		t.Errorf("statement cache: %d hits / %d misses over 2,000 calls of one shape, want 1999 / 1", hits, misses)
	}
	shapes := db.Metrics().Shapes
	if len(shapes) != 1 || shapes[0].Count != 2000 || shapes[0].Shape != "SELECT S.SNO FROM SUPPLIER S WHERE S.SNO = :N" {
		t.Errorf("metrics registry: %+v, want one shape with 2,000 observations", shapes)
	}
}

// TestStatementCacheConcurrentTexts runs literal-free statements, in a
// few spellings each, from many goroutines with different bindings
// while the schema version moves underneath: a text entry is as
// immutable and as version-keyed as a shape entry. Run under -race.
func TestStatementCacheConcurrentTexts(t *testing.T) {
	db := shapeDB(t, uniqopt.Options{})
	texts := spellings(`SELECT DISTINCT S.SNO, S.SNAME FROM SUPPLIER S WHERE S.SNO = :N`)
	const workers, rounds = 8, 60
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				sno := 1 + (w*rounds+i)%45
				rows, err := db.QueryWith(texts[(w+i)%len(texts)], map[string]any{"N": sno}, true)
				if err != nil {
					t.Error(err)
					return
				}
				if len(rows.Data) != 1 || rows.Data[0][0] != int64(sno) || len(rows.Rewrites) != 1 {
					t.Errorf(":N = %d returned %v, rewrites %+v", sno, rows.Data, rows.Rewrites)
					return
				}
			}
		}(w)
	}
	// Index DDL only bumps the catalog version: every entry filed so far
	// becomes unreachable while the readers keep running.
	for i := 0; i < 5; i++ {
		if err := db.CreateIndex("AGENTS", fmt.Sprintf("A_%d", i), "ACITY"); err != nil {
			t.Error(err)
		}
	}
	wg.Wait()
	hits, misses := db.PlanCacheCounters()
	if hits+misses != workers*rounds {
		t.Errorf("%d hits + %d misses over %d calls: not one count per call", hits, misses, workers*rounds)
	}
	if max := int64(6 * workers); misses > max {
		t.Errorf("%d misses: more than every worker compiling once per catalog version (%d)", misses, max)
	}
}

// TestWarmStatementAllocs bounds what a verbatim repeat of a
// literal-free statement allocates. The INSERT bound leaves no room for
// a lexer pass (the shape buffer and the shape string) or a converted
// copy of the bindings: what remains is the binding vector, the row,
// and the table's own growth. The query bound is the call's — the
// pipeline, its governor and its result are carved from the DB's
// recycled frame — plus the binding vector and the answer's copy, its
// column list among it; it is the same number for a statement ten times
// as long. Under the poison build tag nothing of a frame is handed out
// twice — each allocator the query carves from takes a fresh chunk, the
// Result and the builder are fresh — and every iterator is wrapped in
// the contract checker, which costs the query ten more; the race
// detector costs it one, the call.
func TestWarmStatementAllocs(t *testing.T) {
	db := uniqopt.Open()
	if err := db.Exec(`CREATE TABLE T (A INTEGER, B VARCHAR(30), C BOOLEAN, D INTEGER, PRIMARY KEY (A))`); err != nil {
		t.Fatal(err)
	}
	const runs = 200
	keys := make([]any, runs+2) // boxed ahead of the measurement
	for i := range keys {
		keys[i] = 1000 + i
	}
	const ins = `INSERT INTO T VALUES (:A, :B, TRUE, :D) -- appended by the ingest loop`
	hosts := map[string]any{"A": 0, "B": "some text", "D": nil}
	next := 0
	insert := func() {
		hosts["A"] = keys[next]
		next++
		if n, err := db.ExecWith(ins, hosts); err != nil || n != 1 {
			t.Fatalf("insert: n=%d err=%v", n, err)
		}
	}
	insert()
	got := testing.AllocsPerRun(runs, insert)
	if got > 3 {
		t.Errorf("warm host-variable INSERT: %v allocs per call, want at most 3", got)
	}
	t.Logf("warm host-variable INSERT: %v allocs per call", got)

	const sel = `SELECT A, B FROM T WHERE A = :A`
	long := sel + strings.Repeat(" -- padding\n", 40)
	hosts["A"] = keys[0]
	query := func(sql string) func() {
		return func() {
			rows, err := db.QueryWithContext(context.Background(), sql, hosts, true)
			if err != nil || len(rows.Data) != 1 {
				t.Fatalf("query: %v err=%v", rows, err)
			}
		}
	}
	query(sel)()
	query(long)()
	short, padded := testing.AllocsPerRun(runs, query(sel)), testing.AllocsPerRun(runs, query(long))
	limit := 9.0
	if poisonBuild {
		limit += 10
	}
	if raceBuild {
		limit++
	}
	if short > limit || short != padded {
		t.Errorf("warm query: %v allocs per call (want at most %v), %v for the same statement behind 480 bytes of comments", short, limit, padded)
	}
	t.Logf("warm query: %v allocs per call", short)

	// A shape hit that carries literals, in the style of ex1_lit: two
	// literals, drawn afresh each call, and a fired rewrite (A is the key,
	// so the DISTINCT goes) whose texts quote them. What it pays for is
	// the lexer pass, its literal tokens and the spliced rewrite texts.
	lits := make([]string, runs+1)
	for i := range lits {
		lits[i] = fmt.Sprintf(`SELECT DISTINCT A, B FROM T WHERE D < %d AND A > %d`, 5+i, 1000+i%7)
	}
	next = 0
	lifted := func() {
		rows, err := db.QueryWithContext(context.Background(), lits[next%len(lits)], nil, true)
		next++
		if err != nil || len(rows.Rewrites) != 1 {
			t.Fatalf("lifted query: %v err=%v", rows, err)
		}
	}
	lifted()
	got = testing.AllocsPerRun(runs, lifted)
	if got > 12 && !poisonBuild {
		t.Errorf("warm literal-bearing query: %v allocs per call, want at most 12", got)
	}
	t.Logf("warm literal-bearing query: %v allocs per call", got)
}

// poisonBuild is set under the poison build tag (poison_test.go),
// raceBuild under the race detector (race_test.go).
var poisonBuild, raceBuild bool
