package uniqopt

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"uniqopt/internal/value"
	"uniqopt/internal/workload"
)

// loadPaperInstance defines the paper's schema on db and copies the
// deterministic workload instance into it through the WAL-routed
// insert path.
func loadPaperInstance(t *testing.T, db *DB) {
	t.Helper()
	cfg := workload.DefaultConfig()
	cfg.Suppliers = 40
	cfg.PaperLimits = true
	fresh, err := workload.NewDB(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, ddl := range workload.PaperDDL {
		if err := db.Exec(ddl); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range []string{"SUPPLIER", "PARTS", "AGENTS"} { // parents before FK children
		src := fresh.MustTable(name)
		for i := 0; i < src.Len(); i++ {
			if err := db.InsertRow(name, src.Row(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// paperBindings supplies host-variable values present in the
// workload instance, so bound queries return rows.
var paperBindings = map[string]any{
	"SUPPLIER-NO":   3,
	"SUPPLIER-NAME": "Smith",
	"PART-NO":       2,
	"PARTNO":        2,
}

// goldenTranscript runs every paper example on db — result rows and
// EXPLAIN with the analyzer's provenance trace — and renders one
// deterministic text transcript.
func goldenTranscript(t *testing.T, db *DB) string {
	t.Helper()
	names := make([]string, 0, len(workload.PaperQueries))
	for name := range workload.PaperQueries {
		names = append(names, name)
	}
	sort.Strings(names)
	var sb strings.Builder
	for _, name := range names {
		sql := workload.PaperQueries[name]
		hosts := map[string]any{}
		for _, hv := range workload.PaperHostVars[name] {
			hosts[hv] = paperBindings[hv]
		}
		fmt.Fprintf(&sb, "== %s\n", name)
		rows, err := db.QueryWith(sql, hosts, true)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		fmt.Fprintf(&sb, "cols %v\n", rows.Columns)
		for _, r := range rows.Data {
			fmt.Fprintf(&sb, "row %v\n", r)
		}
		for _, rw := range rows.Rewrites {
			fmt.Fprintf(&sb, "rewrite %s: %s\n", rw.Rule, rw.Description)
		}
		ex, err := db.Explain(sql)
		if err != nil {
			t.Fatalf("%s explain: %v", name, err)
		}
		sb.WriteString(ex.String())
	}
	return sb.String()
}

// TestGoldenExamplesBothBackends is the durability acceptance test:
// the paper's worked examples must produce byte-identical results,
// rewrites, and EXPLAIN provenance on the in-memory backend, on the
// WAL backend, and on the WAL backend after a close/reopen recovery
// cycle. If recovery replays into a state the optimizer treats even
// slightly differently — a lost constraint, a changed key, a stale
// compiled statement — the transcripts diverge.
func TestGoldenExamplesBothBackends(t *testing.T) {
	mem := Open()
	loadPaperInstance(t, mem)
	want := goldenTranscript(t, mem)

	dir := t.TempDir()
	wal, err := OpenPersistent(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	loadPaperInstance(t, wal)
	if got := goldenTranscript(t, wal); got != want {
		t.Fatalf("WAL backend transcript diverges from memory backend:\n%s", firstDiff(want, got))
	}
	if err := wal.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := wal.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := OpenPersistent(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Recovering() {
		t.Fatal("OpenPersistent returned a still-recovering database")
	}
	if got := goldenTranscript(t, re); got != want {
		t.Fatalf("post-recovery transcript diverges:\n%s", firstDiff(want, got))
	}
}

// TestCatalogVersionSurvivesReopen pins the statement-cache soundness
// invariant: the catalog version after recovery is at least the
// version the schema reached before the crash, so cache keys minted
// pre-crash can never collide with a post-restart schema state.
func TestCatalogVersionSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenPersistent(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, ddl := range workload.PaperDDL {
		if err := db.Exec(ddl); err != nil {
			t.Fatal(err)
		}
	}
	before := db.Backend().Catalog().Version()
	if before == 0 {
		t.Fatal("DDL did not advance the catalog version")
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := OpenPersistent(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if after := re.Backend().Catalog().Version(); after < before {
		t.Fatalf("catalog version regressed across reopen: %d -> %d", before, after)
	}
	// The recovered schema must answer the paper's flagship verdict.
	a, err := re.Analyze(`SELECT DISTINCT S.SNO, P.PNO, P.PNAME FROM SUPPLIER S, PARTS P
		WHERE S.SNO = P.SNO AND P.COLOR = 'RED'`)
	if err != nil {
		t.Fatal(err)
	}
	if !a.DistinctRedundant {
		t.Fatal("recovered schema lost the Example 1 uniqueness verdict")
	}
}

// TestExecInsertBothBackends covers the SQL INSERT path end to end on
// both backends, including host variables and multi-tuple statements.
func TestExecInsertBothBackends(t *testing.T) {
	open := map[string]func(t *testing.T) *DB{
		"memory": func(t *testing.T) *DB { return Open() },
		"wal": func(t *testing.T) *DB {
			db, err := OpenPersistent(t.TempDir(), Options{})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { db.Close() })
			return db
		},
	}
	for name, openFn := range open {
		t.Run(name, func(t *testing.T) {
			db := openFn(t)
			if err := db.Exec(`CREATE TABLE T (A INTEGER, B VARCHAR, PRIMARY KEY (A))`); err != nil {
				t.Fatal(err)
			}
			n, err := db.ExecWith(`INSERT INTO T VALUES (1, 'x'), (2, 'y')`, nil)
			if err != nil || n != 2 {
				t.Fatalf("multi-tuple insert: n=%d err=%v", n, err)
			}
			n, err = db.ExecWith(`INSERT INTO T VALUES (:A, :B)`, map[string]any{"A": 3, "B": "z"})
			if err != nil || n != 1 {
				t.Fatalf("host-var insert: n=%d err=%v", n, err)
			}
			if _, err := db.ExecWith(`INSERT INTO T VALUES (1, 'dup')`, nil); err == nil {
				t.Fatal("duplicate key accepted")
			}
			rows, err := db.Query(`SELECT ALL A, B FROM T WHERE A = 3`)
			if err != nil || len(rows.Data) != 1 || rows.Data[0][1] != "z" {
				t.Fatalf("query after insert: %v %v", rows, err)
			}
		})
	}
}

// TestInsertRowCopiesCallerSlice: the engine's own INSERT path hands its
// freshly built row to storage without a copy, but a caller of
// InsertRow keeps its slice — a loader that fills one buffer per row
// must not rewrite rows it already inserted, on either backend, in the
// heap or (after a reopen) in the log.
func TestInsertRowCopiesCallerSlice(t *testing.T) {
	dir := t.TempDir()
	wal, err := OpenPersistent(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { wal.Close() }()
	mem := Open()
	check := func(name string, db *DB) {
		t.Helper()
		rows, err := db.Query(`SELECT ALL A, B FROM T`)
		if err != nil {
			t.Fatal(err)
		}
		want := [][]any{{int64(1), "one"}, {int64(2), "two"}, {int64(3), "three"}}
		if !reflect.DeepEqual(rows.Data, want) {
			t.Errorf("%s: rows %v, want %v: InsertRow kept the caller's slice", name, rows.Data, want)
		}
	}
	for name, db := range map[string]*DB{"memory": mem, "wal": wal} {
		if err := db.Exec(`CREATE TABLE T (A INTEGER, B VARCHAR, PRIMARY KEY (A))`); err != nil {
			t.Fatal(err)
		}
		buf := make(value.Row, 2)
		for i, b := range []string{"one", "two", "three"} {
			buf[0], buf[1] = value.Int(int64(i+1)), value.String_(b)
			if err := db.InsertRow("T", buf); err != nil {
				t.Fatal(err)
			}
		}
		buf[0], buf[1] = value.Int(99), value.String_("scribble")
		check(name, db)
	}
	if err := wal.Close(); err != nil {
		t.Fatal(err)
	}
	if wal, err = OpenPersistent(dir, Options{}); err != nil {
		t.Fatal(err)
	}
	check("wal, reopened", wal)
}

// firstDiff renders the first diverging line of two transcripts.
func firstDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(w) && i < len(g); i++ {
		if w[i] != g[i] {
			return fmt.Sprintf("line %d:\n  memory: %s\n  wal:    %s", i+1, w[i], g[i])
		}
	}
	return fmt.Sprintf("transcript lengths differ: %d vs %d lines", len(w), len(g))
}
