package uniqopt

import (
	"context"
	"testing"
)

// TestHostVarMissingBinding: executing a statement without a value
// for one of its host variables fails with a named, typed error —
// the statement is not silently run with NULL, nor run until it reaches
// the variable. Whatever the rest of the predicate decides on the data,
// and with or without the rewrites, a query is refused before it runs,
// with the message an INSERT refuses the same omission with.
func TestHostVarMissingBinding(t *testing.T) {
	db := paperDB(t)
	const want = "uniqopt: unbound host variable :CITY"
	for _, sql := range []string{
		`SELECT S.SNO FROM SUPPLIER S WHERE S.SNO = :SNO AND S.SCITY = :CITY`,
		`SELECT S.SNO FROM SUPPLIER S WHERE S.SNO = 999 AND S.SCITY = :CITY`,
		`SELECT S.SNO FROM SUPPLIER S WHERE S.SNO > 0 OR S.SCITY = :CITY`,
		`SELECT S.SNO FROM SUPPLIER S WHERE S.SNO = 1 AND S.SCITY = :CITY`,
	} {
		for _, optimize := range []bool{true, false} {
			_, err := db.QueryWithContext(context.Background(), sql, map[string]any{"SNO": 1}, optimize)
			if err == nil || err.Error() != want {
				t.Errorf("optimize=%v %s: err = %v, want %q", optimize, sql, err, want)
			}
		}
	}
	n, err := db.ExecWith(`INSERT INTO SUPPLIER VALUES (7, 'Adams', 'Hull', 1, 'Active'), (8, 'Blake', :CITY, 1, 'Active')`, nil)
	if n != 0 || err == nil || err.Error() != want {
		t.Errorf("INSERT: n=%d err = %v, want nothing inserted and %q", n, err, want)
	}
	// No bindings at all fails the same way.
	_, err = db.QueryWithContext(context.Background(),
		`SELECT S.SNO FROM SUPPLIER S WHERE S.SNO = :SNO`, nil, true)
	if err == nil || err.Error() != "uniqopt: unbound host variable :SNO" {
		t.Errorf("nil bindings: %v", err)
	}
}

// TestHostVarExtraBinding: bindings the statement never references
// are ignored — a client may keep one parameter map for several
// prepared statements.
func TestHostVarExtraBinding(t *testing.T) {
	db := paperDB(t)
	rows, err := db.QueryWithContext(context.Background(),
		`SELECT S.SNO FROM SUPPLIER S WHERE S.SNO = :SNO`,
		map[string]any{"SNO": 2, "UNUSED": "x", "ALSO-UNUSED": int64(7)}, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows.Data) != 1 || rows.Data[0][0] != int64(2) {
		t.Errorf("rows = %v", rows.Data)
	}
}

// TestHostVarNullBinding: a host variable explicitly bound to NULL
// participates in three-valued logic — :X = NULL makes the predicate
// UNKNOWN everywhere, so the result is empty rather than an error.
func TestHostVarNullBinding(t *testing.T) {
	db := paperDB(t)
	rows, err := db.QueryWithContext(context.Background(),
		`SELECT S.SNO FROM SUPPLIER S WHERE S.SNO = :SNO`,
		map[string]any{"SNO": nil}, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows.Data) != 0 {
		t.Errorf("NULL-valued comparison should match nothing, got %v", rows.Data)
	}
	// The same under the baseline path, so the rewrite layer cannot
	// be what discarded the rows.
	rows, err = db.QueryWithContext(context.Background(),
		`SELECT S.SNO FROM SUPPLIER S WHERE S.SNO = :SNO`,
		map[string]any{"SNO": nil}, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows.Data) != 0 {
		t.Errorf("baseline NULL comparison should match nothing, got %v", rows.Data)
	}
}

// TestHostVarReexecution: the prepared-statement pattern — one shape,
// many bindings. Results track the bindings, and after the first
// execution the whole compiled statement — verdict, rewrites, plan —
// comes from the statement cache (it depends on the shape, not the
// host values), so the analyzer is not consulted again at all.
func TestHostVarReexecution(t *testing.T) {
	db := paperDB(t)
	const src = `SELECT DISTINCT S.SNO, S.SNAME FROM SUPPLIER S WHERE S.SNO = :SNO`
	want := map[int64]string{1: "Smith", 2: "Jones", 3: "Smith"}

	if _, err := db.QueryWithContext(context.Background(), src,
		map[string]any{"SNO": 1}, true); err != nil {
		t.Fatal(err)
	}
	_, missesAfterFirst := db.CacheCounters()
	hitsBefore, _ := db.PlanCacheCounters()

	for sno, name := range want {
		rows, err := db.QueryWithContext(context.Background(), src,
			map[string]any{"SNO": sno}, true)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows.Data) != 1 || rows.Data[0][0] != sno || rows.Data[0][1] != name {
			t.Errorf("SNO=%d: rows = %v", sno, rows.Data)
		}
		if len(rows.Rewrites) == 0 {
			t.Errorf("SNO=%d: DISTINCT over the key should be rewritten", sno)
		}
	}

	if _, misses := db.CacheCounters(); misses != missesAfterFirst {
		t.Errorf("re-execution re-analyzed the shape: misses %d -> %d", missesAfterFirst, misses)
	}
	if hits, _ := db.PlanCacheCounters(); hits != hitsBefore+3 {
		t.Errorf("re-executions should hit the statement cache: hits %d -> %d", hitsBefore, hits)
	}
}
