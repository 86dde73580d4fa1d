// End-to-end tests of the uniqoptd server through the client
// library: round trips, prepared statements with host variables,
// typed budget and admission errors on the wire, snapshot-consistent
// reads versus DDL, graceful shutdown, and — throughout — the shared
// goroutine-leak assertion, because a server that survives
// disconnects only in the happy path is not a server.
package server_test

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"uniqopt"
	"uniqopt/internal/server"
	"uniqopt/internal/server/client"
	"uniqopt/internal/sql/parser"
	"uniqopt/internal/testleak"
)

// testDB builds the lifecycle schema: S (keyed SNO) and P (keyed
// PNO), rows wide enough that cross joins dominate any timing.
func testDB(t testing.TB, rows int, opts uniqopt.Options) *uniqopt.DB {
	t.Helper()
	db := uniqopt.OpenWith(opts)
	for _, ddl := range []string{
		`CREATE TABLE S (SNO INTEGER NOT NULL, CITY VARCHAR, PRIMARY KEY (SNO))`,
		`CREATE TABLE P (PNO INTEGER NOT NULL, SNO INTEGER, COLOR VARCHAR, PRIMARY KEY (PNO))`,
	} {
		if err := db.Exec(ddl); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < rows; i++ {
		if err := db.Insert("S", i, fmt.Sprintf("city-%d", i%7)); err != nil {
			t.Fatal(err)
		}
		if err := db.Insert("P", i, i%rows, []string{"RED", "BLUE"}[i%2]); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// startServer serves db on a loopback listener and tears the server
// down in cleanup. Register testleak.Check before calling it so the
// shutdown runs before the leak assertion.
func startServer(t testing.TB, db *uniqopt.DB, cfg server.Config) (*server.Server, string) {
	t.Helper()
	srv := server.New(db, cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
		if err := <-serveErr; err != nil {
			t.Errorf("Serve: %v", err)
		}
	})
	return srv, ln.Addr().String()
}

func dial(t testing.TB, addr string) *client.Client {
	t.Helper()
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestServerQueryRoundTrip(t *testing.T) {
	testleak.Check(t)
	db := testDB(t, 50, uniqopt.Options{})
	_, addr := startServer(t, db, server.Config{})
	c := dial(t, addr)
	defer c.Close()

	info := c.Info()
	if info.Server == "" || info.Session == 0 {
		t.Fatalf("HELLO incomplete: %+v", info)
	}
	if len(info.Tables) != 2 || info.Tables[0] != "P" || info.Tables[1] != "S" {
		t.Fatalf("HELLO tables = %v, want sorted [P S]", info.Tables)
	}

	res, err := c.Query(`SELECT DISTINCT S.SNO, S.CITY FROM S WHERE S.SNO = 7`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0] != int64(7) || res.Rows[0][1] != "city-0" {
		t.Fatalf("rows = %v", res.Rows)
	}
	// DISTINCT on the key is redundant: the rewrite must survive the
	// wire so remote clients see the optimizer's decisions.
	found := false
	for _, rw := range res.Rewrites {
		if rw.Rule == "eliminate-distinct" {
			found = true
		}
	}
	if !found {
		t.Fatalf("eliminate-distinct rewrite lost on the wire: %v", res.Rewrites)
	}

	// NULL cells survive the trip.
	if err := db.Insert("P", 9999, nil, nil); err != nil {
		t.Fatal(err)
	}
	res, err = c.Query(`SELECT P.PNO, P.COLOR FROM P WHERE P.PNO = 9999`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][1] != nil {
		t.Fatalf("NULL did not survive the wire: %v", res.Rows)
	}
}

func TestServerPreparedStatements(t *testing.T) {
	testleak.Check(t)
	db := testDB(t, 40, uniqopt.Options{})
	_, addr := startServer(t, db, server.Config{})
	c := dial(t, addr)
	defer c.Close()

	// DISTINCT on the key: the first EXEC compiles the shape (analysis,
	// rewrite, plan); repeated executions are served by the statement
	// cache.
	if err := c.Prepare("by_sno", `SELECT DISTINCT S.SNO, S.CITY FROM S WHERE S.SNO = :N`); err != nil {
		t.Fatal(err)
	}

	// Re-execution with different bindings returns different rows.
	for _, n := range []int64{3, 17, 3} {
		res, err := c.Exec("by_sno", map[string]any{"N": n})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 1 || res.Rows[0][0] != n {
			t.Fatalf("exec N=%d: rows = %v", n, res.Rows)
		}
		if res.Reprepared {
			t.Fatal("Reprepared set without any DDL")
		}
	}
	// The compiled statement for the shape is cached: after the first
	// EXEC the remaining ones must hit, not re-run Algorithm 1.
	if hits, misses := db.PlanCacheCounters(); hits != 2 || misses != 1 {
		t.Fatalf("three EXECs of one shape: statement cache %d hits / %d misses, want 2/1", hits, misses)
	}

	// Missing binding: typed SQL error naming the host variable.
	_, err := c.Exec("by_sno", nil)
	var re *client.RemoteError
	if !errors.As(err, &re) || re.Code != server.CodeSQL || !strings.Contains(re.Msg, "unbound host variable :N") {
		t.Fatalf("missing binding: err = %v", err)
	}

	// Extra bindings are ignored, as with the embedded API.
	if _, err := c.Exec("by_sno", map[string]any{"N": 5, "UNUSED": "x"}); err != nil {
		t.Fatalf("extra binding should be harmless: %v", err)
	}

	// NULL-valued host variable: the comparison is UNKNOWN for every
	// row, so the result is empty — not an error.
	res, err := c.Exec("by_sno", map[string]any{"N": nil})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 {
		t.Fatalf("NULL host variable matched rows: %v", res.Rows)
	}

	// Unknown statement name: typed error.
	_, err = c.Exec("nope", nil)
	if !errors.As(err, &re) || re.Code != server.CodeUnknownStmt {
		t.Fatalf("unknown statement: err = %v", err)
	}

	// PREPARE of garbage: parse error at prepare time, not exec time.
	err = c.Prepare("bad", `SELECT FROM WHERE`)
	if !errors.As(err, &re) || re.Code != server.CodeParse {
		t.Fatalf("bad prepare: err = %v", err)
	}
}

func TestServerBudgetErrorOnWire(t *testing.T) {
	testleak.Check(t)
	db := testDB(t, 500, uniqopt.Options{})
	_, addr := startServer(t, db, server.Config{SessionMaxRows: 1000})
	c := dial(t, addr)
	defer c.Close()

	if got := c.Info().MaxRows; got != 1000 {
		t.Fatalf("granted MaxRows = %d, want 1000", got)
	}
	_, err := c.Query(`SELECT S.SNO, P.PNO FROM S, P WHERE S.SNO < P.PNO`)
	if !errors.Is(err, uniqopt.ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded through errors.Is", err)
	}
	var re *client.RemoteError
	if !errors.As(err, &re) || re.Code != server.CodeBudget || re.Resource != "rows" || re.Limit != 1000 {
		t.Fatalf("budget error lost its typing on the wire: %+v", re)
	}
	// The session survives its budget error.
	if _, err := c.Query(`SELECT S.SNO FROM S WHERE S.SNO = 1`); err != nil {
		t.Fatalf("session dead after budget error: %v", err)
	}
}

func TestServerBudgetNegotiation(t *testing.T) {
	testleak.Check(t)
	db := testDB(t, 10, uniqopt.Options{})
	_, addr := startServer(t, db, server.Config{SessionMaxRows: 1000, SessionMemBudget: 1 << 20})
	// Request below the ceiling: granted as asked.
	c, err := client.DialOptions(addr, client.Options{MaxRows: 100})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if got := c.Info().MaxRows; got != 100 {
		t.Fatalf("granted MaxRows = %d, want 100", got)
	}
	// Request above the ceiling: clamped.
	c2, err := client.DialOptions(addr, client.Options{MaxRows: 1 << 40, MemBudget: 1 << 40})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if got := c2.Info().MaxRows; got != 1000 {
		t.Fatalf("clamped MaxRows = %d, want 1000", got)
	}
	if got := c2.Info().MemBudget; got != 1<<20 {
		t.Fatalf("clamped MemBudget = %d, want %d", got, 1<<20)
	}
}

func TestServerSessionCap(t *testing.T) {
	testleak.Check(t)
	db := testDB(t, 10, uniqopt.Options{})
	srv, addr := startServer(t, db, server.Config{MaxSessions: 1})
	c := dial(t, addr)
	defer c.Close()

	// The second session's first request is answered with a typed
	// admission error and the connection closed.
	_, err := client.Dial(addr)
	var re *client.RemoteError
	if !errors.As(err, &re) || re.Code != server.CodeAdmission || re.Resource != "sessions" {
		t.Fatalf("over-cap dial: err = %v", err)
	}
	if n := srv.Sessions(); n != 1 {
		t.Fatalf("after a refused dial %d sessions hold a slot, want 1: a refusal must not occupy one", n)
	}
	// Closing the first session frees the slot — once its goroutine has
	// seen the close, which the server's own gauge reports.
	c.Close()
	for deadline := time.Now().Add(5 * time.Second); srv.Sessions() != 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("slot not freed 5s after Close: %d sessions still admitted", srv.Sessions())
		}
	}
	c2, err := client.Dial(addr)
	if err != nil {
		t.Fatalf("dial after slot freed: %v", err)
	}
	c2.Close()
}

func TestServerConcurrencyAdmission(t *testing.T) {
	testleak.Check(t)
	db := testDB(t, 1500, uniqopt.Options{})
	_, addr := startServer(t, db, server.Config{MaxConcurrent: 1})
	slow := dial(t, addr)
	defer slow.Close()
	fast := dial(t, addr)
	defer fast.Close()

	slowDone := make(chan error, 1)
	go func() {
		// ~2.25M-pair inequality join: long enough for the prober to
		// land while it holds the only concurrency slot. If a probe
		// holds the slot when this arrives, it is this query that is
		// turned away: go again.
		for {
			_, err := slow.Query(`SELECT S.SNO, P.PNO FROM S, P WHERE S.SNO < P.PNO`)
			var re *client.RemoteError
			if errors.As(err, &re) && re.Code == server.CodeAdmission {
				continue
			}
			slowDone <- err
			return
		}
	}()

	// Probe until we observe the admission rejection (or the slow
	// query finishes first, in which case the machine is too fast for
	// this overlap — keep probing until slowDone).
	sawRejection := false
	for !sawRejection {
		select {
		case err := <-slowDone:
			if err != nil {
				t.Fatalf("slow query: %v", err)
			}
			if !sawRejection {
				t.Skip("slow query finished before any probe overlapped; cannot observe admission here")
			}
		default:
		}
		_, err := fast.Query(`SELECT S.SNO FROM S WHERE S.SNO = 1`)
		if err == nil {
			time.Sleep(2 * time.Millisecond)
			continue
		}
		var re *client.RemoteError
		if !errors.As(err, &re) || re.Code != server.CodeAdmission || re.Resource != "concurrency" {
			t.Fatalf("probe error = %v, want concurrency admission rejection", err)
		}
		sawRejection = true
	}
	if err := <-slowDone; err != nil {
		t.Fatalf("slow query: %v", err)
	}
	// With the slot free the probe succeeds again.
	if _, err := fast.Query(`SELECT S.SNO FROM S WHERE S.SNO = 1`); err != nil {
		t.Fatalf("probe after release: %v", err)
	}
}

func TestServerDDLVersioningAndReprepare(t *testing.T) {
	testleak.Check(t)
	db := testDB(t, 30, uniqopt.Options{})
	_, addr := startServer(t, db, server.Config{})
	c := dial(t, addr)
	defer c.Close()

	if err := c.Prepare("q", `SELECT S.SNO FROM S WHERE S.SNO = :N`); err != nil {
		t.Fatal(err)
	}
	r1, err := c.Exec("q", map[string]any{"N": 1})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Reprepared {
		t.Fatal("Reprepared before any DDL")
	}

	// DDL through the wire: bumps the catalog version.
	ddl, err := c.Query(`CREATE TABLE T2 (A INTEGER, PRIMARY KEY (A))`)
	if err != nil {
		t.Fatal(err)
	}
	if ddl.CatalogVersion <= r1.CatalogVersion {
		t.Fatalf("DDL did not advance the catalog version: %d then %d", r1.CatalogVersion, ddl.CatalogVersion)
	}

	// The prepared statement still runs, reports the re-validation
	// once, and its results are unchanged.
	r2, err := c.Exec("q", map[string]any{"N": 1})
	if err != nil {
		t.Fatal(err)
	}
	if !r2.Reprepared {
		t.Fatal("EXEC after DDL should report Reprepared")
	}
	if r2.CatalogVersion != ddl.CatalogVersion {
		t.Fatalf("EXEC ran under version %d, want %d", r2.CatalogVersion, ddl.CatalogVersion)
	}
	r3, err := c.Exec("q", map[string]any{"N": 1})
	if err != nil {
		t.Fatal(err)
	}
	if r3.Reprepared {
		t.Fatal("Reprepared should report once per schema change, not forever")
	}

	// The new table is visible to a refreshed HELLO.
	info, err := c.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, name := range info.Tables {
		if name == "T2" {
			found = true
		}
	}
	if !found {
		t.Fatalf("HELLO after DDL lost the new table: %v", info.Tables)
	}
}

// TestServerPlanCacheDDLRace pins the stale-plan race: DDL committing
// between a prepared EXEC's catalog-version check and its plan-cache
// lookup must never let the EXEC run a plan cached under the old
// schema. The server closes the window by holding the snapshot lock
// across the version read and the whole execution (which contains the
// version-keyed plan-cache probe), so under -race this hammers EXEC
// from one connection while another commits DDL, asserting every
// result stays correct, then verifies deterministically that a
// post-DDL EXEC re-plans (Reprepared) and that a quiet re-execution
// hits the plan cache rather than re-planning forever.
func TestServerPlanCacheDDLRace(t *testing.T) {
	testleak.Check(t)
	db := testDB(t, 60, uniqopt.Options{})
	_, addr := startServer(t, db, server.Config{})

	execConn := dial(t, addr)
	defer execConn.Close()
	ddlConn := dial(t, addr)
	defer ddlConn.Close()

	if err := execConn.Prepare("probe", `SELECT S.CITY FROM S WHERE S.SNO = :N`); err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			ddl := fmt.Sprintf(`CREATE TABLE RACE_%d (ID INTEGER NOT NULL, PRIMARY KEY (ID))`, i)
			if _, err := ddlConn.Query(ddl); err != nil {
				t.Errorf("concurrent DDL: %v", err)
				return
			}
		}
	}()

	for i := 0; i < 200; i++ {
		n := int64(i % 60)
		res, err := execConn.Exec("probe", map[string]any{"N": n})
		if err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("city-%d", n%7)
		if len(res.Rows) != 1 || res.Rows[0][0] != want {
			t.Fatalf("EXEC N=%d under concurrent DDL: rows = %v, want [[%s]]", n, res.Rows, want)
		}
	}
	close(done)
	wg.Wait()

	// Deterministic tail: a DDL with no EXEC in flight, then an EXEC —
	// it must observe the new version and re-plan, never serve a
	// stale-version plan.
	if _, err := ddlConn.Query(`CREATE TABLE RACE_FINAL (ID INTEGER, PRIMARY KEY (ID))`); err != nil {
		t.Fatal(err)
	}
	res, err := execConn.Exec("probe", map[string]any{"N": 3})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Reprepared {
		t.Fatal("EXEC after DDL must re-validate and report Reprepared")
	}
	if len(res.Rows) != 1 || res.Rows[0][0] != "city-3" {
		t.Fatalf("post-DDL EXEC: rows = %v", res.Rows)
	}

	// With the schema quiet, re-executing the same shape must hit the
	// plan cache under the now-current version.
	h0, _ := db.PlanCacheCounters()
	if _, err := execConn.Exec("probe", map[string]any{"N": 4}); err != nil {
		t.Fatal(err)
	}
	if _, err := execConn.Exec("probe", map[string]any{"N": 5}); err != nil {
		t.Fatal(err)
	}
	h1, _ := db.PlanCacheCounters()
	if h1 <= h0 {
		t.Errorf("quiet re-execution never hit the plan cache: hits %d -> %d", h0, h1)
	}
}

// TestServerConcurrentQueriesAndDDL is the snapshot-consistency
// stress: many sessions querying while DDL lands between them. Under
// -race this proves queries never observe a half-applied schema
// change; logically, every response's catalog version must be one
// the server actually passed through, and results must be correct
// regardless of interleaving.
func TestServerConcurrentQueriesAndDDL(t *testing.T) {
	testleak.Check(t)
	db := testDB(t, 300, uniqopt.Options{})
	_, addr := startServer(t, db, server.Config{})

	const workers = 8
	const iters = 25
	var wg sync.WaitGroup
	errs := make(chan error, workers+1)

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := client.Dial(addr)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			if err := c.Prepare("q", `SELECT DISTINCT S.SNO, S.CITY FROM S WHERE S.SNO = :N`); err != nil {
				errs <- err
				return
			}
			for i := 0; i < iters; i++ {
				n := int64((w*iters + i) % 300)
				res, err := c.Exec("q", map[string]any{"N": n})
				if err != nil {
					errs <- fmt.Errorf("worker %d iter %d: %w", w, i, err)
					return
				}
				if len(res.Rows) != 1 || res.Rows[0][0] != n {
					errs <- fmt.Errorf("worker %d iter %d: rows %v", w, i, res.Rows)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		c, err := client.Dial(addr)
		if err != nil {
			errs <- err
			return
		}
		defer c.Close()
		last := uint64(0)
		for i := 0; i < 10; i++ {
			res, err := c.Query(fmt.Sprintf(`CREATE TABLE DDL_%d (A INTEGER, PRIMARY KEY (A))`, i))
			if err != nil {
				errs <- fmt.Errorf("ddl %d: %w", i, err)
				return
			}
			if res.CatalogVersion <= last {
				errs <- fmt.Errorf("ddl %d: version did not advance (%d then %d)", i, last, res.CatalogVersion)
				return
			}
			last = res.CatalogVersion
			time.Sleep(time.Millisecond)
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestServerHelloDuringDDL: HELLOs in a loop against CREATE TABLEs.
// A HELLO reads the catalog's table list, which a CREATE TABLE writes;
// under -race a read outside the DDL lock is reported. Every answer is
// one the catalog really had: sorted, and never fewer tables at a later
// version.
func TestServerHelloDuringDDL(t *testing.T) {
	testleak.Check(t)
	db := testDB(t, 10, uniqopt.Options{})
	_, addr := startServer(t, db, server.Config{})
	const ddls = 20
	done := make(chan error, 1)
	go func() {
		c, err := client.Dial(addr)
		if err != nil {
			done <- err
			return
		}
		defer c.Close()
		for i := 0; i < ddls; i++ {
			if _, err := c.Query(fmt.Sprintf(`CREATE TABLE HELLO_%02d (A INTEGER)`, i)); err != nil {
				done <- fmt.Errorf("ddl %d: %w", i, err)
				return
			}
		}
		done <- nil
	}()
	c := dial(t, addr)
	defer c.Close()
	var last client.ServerInfo
	for finished := false; !finished; {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			finished = true
		default:
		}
		info, err := c.Refresh()
		if err != nil {
			t.Fatal(err)
		}
		if !sort.StringsAreSorted(info.Tables) {
			t.Fatalf("HELLO tables not sorted: %v", info.Tables)
		}
		if info.CatalogVersion < last.CatalogVersion || len(info.Tables) < len(last.Tables) {
			t.Fatalf("HELLO went back: version %d with %d tables after version %d with %d",
				info.CatalogVersion, len(info.Tables), last.CatalogVersion, len(last.Tables))
		}
		last = *info
	}
	if n := len(last.Tables); n < ddls {
		t.Errorf("final HELLO lists %d tables, want at least %d", n, ddls)
	}
}

func TestServerClientDisconnectsNoLeak(t *testing.T) {
	testleak.Check(t)
	db := testDB(t, 50, uniqopt.Options{})
	srv, addr := startServer(t, db, server.Config{})

	// Eight sessions; half leave politely, half just vanish.
	clients := make([]*client.Client, 8)
	for i := range clients {
		clients[i] = dial(t, addr)
		if _, err := clients[i].Query(`SELECT S.SNO FROM S WHERE S.SNO = 2`); err != nil {
			t.Fatal(err)
		}
	}
	for i, c := range clients {
		if i%2 == 0 {
			c.Close()
		} else {
			c.Abandon()
		}
	}
	// The server keeps serving new sessions afterwards.
	c := dial(t, addr)
	if _, err := c.Query(`SELECT S.SNO FROM S WHERE S.SNO = 3`); err != nil {
		t.Fatal(err)
	}
	c.Close()
	_ = srv
	// testleak.Check (registered first, so running last) asserts the
	// disconnects left no session goroutines behind after cleanup's
	// Shutdown.
}

func TestServerGracefulShutdownDrains(t *testing.T) {
	testleak.Check(t)
	db := testDB(t, 1200, uniqopt.Options{})
	srv := server.New(db, server.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	c := dial(t, ln.Addr().String())
	defer c.Abandon()

	type qr struct {
		rows int
		err  error
	}
	slow := make(chan qr, 1)
	go func() {
		res, err := c.Query(`SELECT S.SNO, P.PNO FROM S, P WHERE S.SNO < P.PNO AND P.PNO < 400`)
		n := 0
		if res != nil {
			n = len(res.Rows)
		}
		slow <- qr{n, err}
	}()
	time.Sleep(20 * time.Millisecond) // let the query reach the server

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := <-serveErr; err != nil {
		t.Fatalf("Serve: %v", err)
	}

	// The in-flight query drained: it completed and its full result
	// crossed the wire before the connection closed.
	got := <-slow
	if got.err != nil {
		t.Fatalf("in-flight query aborted by graceful shutdown: %v", got.err)
	}
	if got.rows == 0 {
		t.Fatal("drained query returned no rows")
	}

	// New connections are refused now.
	if _, err := client.Dial(ln.Addr().String()); err == nil {
		t.Fatal("dial after shutdown succeeded")
	}
}

func TestServerShutdownDeadlineCancelsInFlight(t *testing.T) {
	testleak.Check(t)
	db := testDB(t, 3000, uniqopt.Options{})
	srv := server.New(db, server.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	c := dial(t, ln.Addr().String())
	defer c.Abandon()

	slow := make(chan error, 1)
	go func() {
		// ~9M-pair inequality join: far beyond the drain deadline.
		_, err := c.Query(`SELECT S.SNO, P.PNO FROM S, P WHERE S.SNO < P.PNO`)
		slow <- err
	}()
	time.Sleep(20 * time.Millisecond)

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	err = srv.Shutdown(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown err = %v, want DeadlineExceeded (drain deadline forced cancellation)", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v; context plumbing is not cooperative enough", elapsed)
	}
	if err := <-serveErr; err != nil {
		t.Fatalf("Serve: %v", err)
	}

	// The aborted query's client saw a typed cancellation, not a
	// hang or a raw connection error.
	qerr := <-slow
	var re *client.RemoteError
	if !errors.As(qerr, &re) || re.Code != server.CodeCancelled {
		t.Fatalf("in-flight query err = %v, want CodeCancelled", qerr)
	}
}

func TestServerShutdownRefusesNewWork(t *testing.T) {
	testleak.Check(t)
	db := testDB(t, 10, uniqopt.Options{})
	srv := server.New(db, server.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	c := dial(t, ln.Addr().String())
	defer c.Abandon()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if err := <-serveErr; err != nil {
		t.Fatal(err)
	}
	// The connection is closed; a request on it fails cleanly.
	if _, err := c.Query(`SELECT S.SNO FROM S`); err == nil {
		t.Fatal("query on a shut-down server succeeded")
	}
}

func TestServerExplainOverWire(t *testing.T) {
	testleak.Check(t)
	db := testDB(t, 40, uniqopt.Options{})
	_, addr := startServer(t, db, server.Config{})
	c := dial(t, addr)
	defer c.Close()

	text, rewrites, err := c.Explain(`SELECT DISTINCT S.SNO FROM S`, false)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "uniqueness analysis:") {
		t.Fatalf("EXPLAIN text lost the provenance trace:\n%s", text)
	}
	if len(rewrites) == 0 {
		t.Fatal("EXPLAIN lost the rewrite list")
	}
	// ANALYZE actually executes.
	text, _, err = c.Explain(`SELECT DISTINCT S.SNO FROM S`, true)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "out=") {
		t.Fatalf("EXPLAIN ANALYZE text lacks per-operator metrics:\n%s", text)
	}
	// The client sends EXPLAIN no values: plan-only, a parameterized
	// statement renders with its parameter as written; ANALYZE, which
	// executes, refuses it as a query does.
	if err := db.CreateIndex("S", "S_SNO", "SNO"); err != nil {
		t.Fatal(err)
	}
	const sql = `SELECT S.CITY FROM S WHERE S.SNO = :N`
	if text, _, err = c.Explain(sql, false); err != nil || !strings.Contains(text, "IndexScan(S via S_SNO = :N)") {
		t.Fatalf("EXPLAIN without values: %v\n%s", err, text)
	}
	if _, _, err = c.Explain(sql, true); err == nil || !strings.Contains(err.Error(), "uniqopt: unbound host variable :N") {
		t.Fatalf("EXPLAIN ANALYZE without values: err = %v", err)
	}
}

// TestServerBadArgRefusedPerRequest: a binding the protocol has no SQL
// type for — a fraction, an exponent, an integer outside int64, a nested
// array or object — sits in a well-formed frame, so the refusal is that
// request's (CodeProtocol, naming the host variable) and the session
// carries on. No client encodes such a frame; these are written by hand.
func TestServerBadArgRefusedPerRequest(t *testing.T) {
	testleak.Check(t)
	db := testDB(t, 10, uniqopt.Options{})
	_, addr := startServer(t, db, server.Config{})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	roundTrip := func(payload string) *server.Response {
		t.Helper()
		frame := binary.BigEndian.AppendUint32(nil, uint32(len(payload)))
		if _, err := conn.Write(append(frame, payload...)); err != nil {
			t.Fatal(err)
		}
		var resp server.Response
		if err := server.ReadFrame(conn, &resp); err != nil {
			t.Fatalf("after %s: %v", payload, err)
		}
		return &resp
	}
	const query = `"sql":"SELECT S.CITY FROM S WHERE S.SNO = :N"`
	if resp := roundTrip(`{"id":1,"cmd":"PREPARE","name":"put","sql":"INSERT INTO S VALUES (:N, 'x')"}`); !resp.OK {
		t.Fatalf("PREPARE: %+v", resp.Err)
	}
	for i, c := range []struct{ cmd, arg, want string }{
		{`"cmd":"QUERY",` + query, `1.5`, `host :N: non-integer number "1.5"`},
		{`"cmd":"QUERY",` + query, `1e3`, `host :N: non-integer number "1e3"`},
		{`"cmd":"QUERY",` + query, `9223372036854775808`, `host :N: non-integer number "9223372036854775808"`},
		{`"cmd":"QUERY",` + query, `[1,[2]]`, `host :N: unsupported value type []interface {}`},
		{`"cmd":"EXPLAIN",` + query, `{"a":1}`, `host :N: unsupported value type map[string]interface {}`},
		{`"cmd":"EXEC","name":"put"`, `2.0`, `host :N: non-integer number "2.0"`},
	} {
		id := uint64(10 + i)
		resp := roundTrip(fmt.Sprintf(`{"id":%d,%s,"args":{"N":%s}}`, id, c.cmd, c.arg))
		if resp.ID != id || resp.OK || resp.Err == nil || resp.Err.Code != server.CodeProtocol || resp.Err.Msg != c.want {
			t.Fatalf("arg %s: response %+v err %+v, want protocol error %q", c.arg, resp, resp.Err, c.want)
		}
		// The same session still answers, with the extremes intact.
		ok := roundTrip(fmt.Sprintf(`{"id":%d,"cmd":"QUERY",%s,"args":{"N":7}}`, id+100, query))
		if !ok.OK || len(ok.Rows) != 1 || ok.Rows[0][0] != "city-0" {
			t.Fatalf("after bad arg %s: %+v err %+v", c.arg, ok, ok.Err)
		}
	}
	if resp := roundTrip(`{"id":99,"cmd":"CLOSE"}`); !resp.OK {
		t.Fatalf("CLOSE: %+v", resp.Err)
	}
}

// TestServerArgsEndWithTheirRequest: a session decodes every request
// into one Request and clears its bindings in between, so a binding
// the next request leaves out is unbound there — refused, not run with
// the value the request before it carried. Queries and INSERTs alike.
func TestServerArgsEndWithTheirRequest(t *testing.T) {
	testleak.Check(t)
	db := testDB(t, 10, uniqopt.Options{})
	_, addr := startServer(t, db, server.Config{})
	c := dial(t, addr)
	defer c.Close()
	if err := c.Prepare("q", `SELECT S.CITY FROM S WHERE S.SNO = :N AND S.SNO < :K`); err != nil {
		t.Fatal(err)
	}
	if err := c.Prepare("put", `INSERT INTO S VALUES (:N, :CITY)`); err != nil {
		t.Fatal(err)
	}
	res, err := c.Exec("q", map[string]any{"N": 1, "K": 2})
	if err != nil || len(res.Rows) != 1 || res.Rows[0][0] != "city-1" {
		t.Fatalf("EXEC q {N:1, K:2}: %+v, %v", res, err)
	}
	_, err = c.Exec("q", map[string]any{"N": 1})
	if re := (*client.RemoteError)(nil); !errors.As(err, &re) || re.Code != server.CodeSQL || !strings.Contains(re.Msg, ":K") {
		t.Fatalf("EXEC q {N:1} after {N:1, K:2}: %v, want the unbound :K refused", err)
	}
	if res, err := c.Exec("put", map[string]any{"N": 100, "CITY": "here"}); err != nil || res.RowsAffected != 1 {
		t.Fatalf("EXEC put {N:100, CITY}: %+v, %v", res, err)
	}
	_, err = c.Exec("put", map[string]any{"N": 101})
	if re := (*client.RemoteError)(nil); !errors.As(err, &re) || re.Code != server.CodeSQL || !strings.Contains(re.Msg, ":CITY") {
		t.Fatalf("EXEC put {N:101} after {N:100, CITY}: %v, want the unbound :CITY refused", err)
	}
	if res, err := c.Query(`SELECT S.SNO FROM S WHERE S.SNO = 101`); err != nil || len(res.Rows) != 0 {
		t.Fatalf("row 101: %+v, %v", res, err)
	}
}

// TestServerSyntaxErrorsTyped: a one-shot QUERY is classified by its
// first token and parsed only where it is compiled, so a syntax error
// now surfaces from inside the database. It must still reach the client
// as CodeParse, with the message the parser gives for the text as
// written — which is what the session answered when it parsed every
// QUERY itself. Each text is sent twice: nothing about a
// failed statement may be remembered.
func TestServerSyntaxErrorsTyped(t *testing.T) {
	testleak.Check(t)
	db := testDB(t, 10, uniqopt.Options{})
	_, addr := startServer(t, db, server.Config{})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	id := uint64(0)
	roundTrip := func(cmd, sql string) *server.Response {
		t.Helper()
		id++
		if err := server.WriteFrame(conn, &server.Request{ID: id, Cmd: server.Command(cmd), Name: "p", SQL: sql}); err != nil {
			t.Fatal(err)
		}
		var resp server.Response
		if err := server.ReadFrame(conn, &resp); err != nil {
			t.Fatalf("after %s %q: %v", cmd, sql, err)
		}
		if resp.ID != id {
			t.Fatalf("%s %q: response id %d, want %d", cmd, sql, resp.ID, id)
		}
		return &resp
	}
	for _, sql := range []string{
		"SELECT S.SNO FROM S WHERE S.SNO = @", // lex error
		"@",                                   // lex error in the first token
		"SELECT S.CITY FROM S WHERE S.CITY = 'open",              // unterminated string
		"SELECT FROM WHERE",                                      // parse error
		"SELECT 7 FROM S",                                        // parse error naming a literal
		"SELECT S.SNO FROM S WHERE S.SNO = 99999999999999999999", // past int64
		"(SELECT S.SNO FROM S)",                                  // not a statement keyword
		"",                                                       // empty text
		"  -- nothing but a comment\n",                           // comment-only text
		"CREATE TABLE (",                                         // DDL
		"CREATE TABLE T2 (A INTEGER, PRIMARY KEY (A)) @",
		"INSERT INTO S VALUES (", // INSERT
		"INSERT INTO S VALUES (1, 'x'",
	} {
		_, perr := parser.ParseStatement(sql)
		if perr == nil {
			t.Fatalf("%q parses", sql)
		}
		for _, cmd := range []string{"QUERY", "QUERY", "PREPARE"} {
			resp := roundTrip(cmd, sql)
			if resp.OK || resp.Err == nil || resp.Err.Code != server.CodeParse || resp.Err.Msg != perr.Error() {
				t.Errorf("%s %q: response %+v err %+v, want CodeParse %q", cmd, sql, resp, resp.Err, perr)
			}
		}
	}
	// An error the parser does not raise keeps its code.
	if resp := roundTrip("QUERY", "SELECT S.NOPE FROM S"); resp.OK || resp.Err.Code != server.CodeSQL {
		t.Errorf("unknown column: %+v err %+v, want CodeSQL", resp, resp.Err)
	}
	if resp := roundTrip("QUERY", "CREATE TABLE S (A INTEGER, PRIMARY KEY (A))"); resp.OK || resp.Err.Code != server.CodeSQL {
		t.Errorf("duplicate table: %+v err %+v, want CodeSQL", resp, resp.Err)
	}
	// DDL is refused at PREPARE, as a protocol error.
	resp := roundTrip("PREPARE", "CREATE TABLE T3 (A INTEGER, PRIMARY KEY (A))")
	if resp.OK || resp.Err == nil || resp.Err.Code != server.CodeProtocol ||
		resp.Err.Msg != "PREPARE accepts queries and INSERT, not DDL" {
		t.Errorf("PREPARE of DDL: %+v err %+v", resp, resp.Err)
	}
	// The session still serves all three kinds, by first token, whatever
	// the letter case or leading comment.
	if resp := roundTrip("QUERY", "-- ddl\ncreate table T4 (A INTEGER, PRIMARY KEY (A))"); !resp.OK {
		t.Fatalf("CREATE: %+v", resp.Err)
	}
	if resp := roundTrip("QUERY", "insert into T4 values (4)"); !resp.OK || resp.RowsAffected != 1 {
		t.Fatalf("INSERT: %+v err %+v", resp, resp.Err)
	}
	if resp := roundTrip("QUERY", "select A from T4"); !resp.OK || len(resp.Rows) != 1 {
		t.Fatalf("SELECT: %+v err %+v", resp, resp.Err)
	}
	if resp := roundTrip("CLOSE", ""); !resp.OK {
		t.Fatalf("CLOSE: %+v", resp.Err)
	}
}
