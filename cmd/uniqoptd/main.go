// Command uniqoptd is the uniqopt network server: a TCP daemon that
// serves concurrent sessions over the length-prefixed JSON wire
// protocol (internal/server), with per-session prepared statements,
// admission control, and graceful drain on SIGINT/SIGTERM.
//
// Usage:
//
//	uniqoptd [-addr :7483] [-data DIR] [-load demo]
//	         [-max-sessions N] [-max-concurrent N]
//	         [-session-max-rows N] [-session-mem BYTES] [-global-mem BYTES]
//	         [-query-timeout D] [-drain-timeout D] [-expvar ADDR]
//
// Connect with sqlsh -connect host:port, the internal/server/client
// library, or anything that frames JSON per the protocol. -load demo
// preloads the paper's supplier/parts/agents workload so a fresh
// daemon has something to query. -expvar serves the process expvar
// endpoint (including the DB metrics registry) on a second address.
//
// With -data DIR the database is crash-safe: every DDL statement and
// INSERT is written to a write-ahead log in DIR and fsynced before
// the client sees the acknowledgement. The daemon binds its listener
// immediately and replays the log in the background; until replay
// finishes, HELLO answers status "recovering" and every other
// command is refused with a typed recovering error, so clients see
// fast failures instead of connection timeouts. -load demo is
// skipped when the directory already holds recovered tables.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	_ "expvar" // mounts /debug/vars on the default mux for -expvar

	"uniqopt"
	"uniqopt/internal/server"
	"uniqopt/internal/storage/wal"
	"uniqopt/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, nil))
}

// daemonHandle is what run hands to a test harness: the serving
// server and the address the listener actually bound (resolved, so
// ":0" ports are usable).
type daemonHandle struct {
	Srv  *server.Server
	Addr string
}

// run is main with its seams exposed: ready (if non-nil) receives
// the serving server and its bound address once the listener is up,
// so tests can drive a real daemon and stop it with Shutdown instead
// of signals.
func run(args []string, stdout, stderr io.Writer, ready chan<- daemonHandle) int {
	// The recovery goroutine, the expvar goroutine, and the signal loop
	// all log; os.Stdout tolerates that, but run accepts arbitrary
	// writers (tests pass strings.Builders), so serialize explicitly.
	stdout = &syncWriter{w: stdout}
	stderr = &syncWriter{w: stderr}
	fs := flag.NewFlagSet("uniqoptd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr         = fs.String("addr", ":7483", "TCP listen address")
		data         = fs.String("data", "", "data directory for crash-safe persistence (empty = in-memory)")
		load         = fs.String("load", "", "preload dataset: 'demo' for the paper workload")
		maxSessions  = fs.Int("max-sessions", 256, "max concurrent sessions (0 = unlimited)")
		maxConc      = fs.Int("max-concurrent", 64, "max concurrently executing queries (0 = unlimited)")
		maxRows      = fs.Int64("session-max-rows", 5_000_000, "per-query row budget ceiling per session (0 = unlimited)")
		sessionMem   = fs.Int64("session-mem", 256<<20, "per-query memory budget ceiling per session, bytes (0 = unlimited)")
		globalMem    = fs.Int64("global-mem", 2<<30, "global query-memory admission pool, bytes (0 = unlimited)")
		queryTimeout = fs.Duration("query-timeout", 0, "per-statement execution timeout (0 = none)")
		drainTimeout = fs.Duration("drain-timeout", 10*time.Second, "graceful-shutdown drain deadline before in-flight queries are cancelled")
		expvarAddr   = fs.String("expvar", "", "serve /debug/vars (expvar, incl. DB metrics) on this address")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *load != "" && *load != "demo" {
		fmt.Fprintf(stderr, "uniqoptd: unknown dataset %q (only 'demo')\n", *load)
		return 2
	}

	dbOpts := uniqopt.Options{}
	var db *uniqopt.DB
	if *data != "" {
		// Persistent mode: open without replaying so the listener binds
		// first; recovery runs in the background below.
		var err error
		db, err = uniqopt.OpenPersistentDeferred(*data, dbOpts)
		if err != nil {
			fmt.Fprintln(stderr, "uniqoptd: open data dir:", err)
			return 1
		}
		defer db.Close()
	} else {
		db = uniqopt.OpenWith(dbOpts)
		if *load == "demo" {
			if err := loadDemo(db); err != nil {
				fmt.Fprintln(stderr, "uniqoptd: load demo:", err)
				return 1
			}
			fmt.Fprintln(stdout, "uniqoptd: demo supplier database loaded")
		}
	}

	cfg := server.Config{
		MaxSessions:      *maxSessions,
		MaxConcurrent:    *maxConc,
		SessionMaxRows:   *maxRows,
		SessionMemBudget: *sessionMem,
		GlobalMemBudget:  *globalMem,
		QueryTimeout:     *queryTimeout,
		Name:             "uniqoptd",
	}
	srv := server.New(db, cfg)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(stderr, "uniqoptd:", err)
		return 1
	}
	fmt.Fprintf(stdout, "uniqoptd: listening on %s (sessions<=%d, concurrent<=%d)\n",
		ln.Addr(), cfg.MaxSessions, cfg.MaxConcurrent)

	if *expvarAddr != "" {
		db.PublishMetrics("uniqoptd_db")
		go func() {
			if err := http.ListenAndServe(*expvarAddr, nil); err != nil {
				fmt.Fprintln(stderr, "uniqoptd: expvar:", err)
			}
		}()
	}

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	// In persistent mode the listener is already accepting; replay the
	// write-ahead log in the background. Sessions arriving before it
	// finishes get the typed recovering status, not a hung connection.
	recoverErr := make(chan error, 1)
	recoverDone := make(chan struct{})
	close(recoverDone)
	if *data != "" {
		recoverDone = make(chan struct{})
		// Exiting before the recovery goroutine has finished logging
		// would close the store (and, in tests, free the output writer)
		// under it; replay is bounded by the log on disk, so waiting is
		// cheap. Registered after the db.Close defer so the wait happens
		// first.
		defer func() { <-recoverDone }()
		go func() {
			defer close(recoverDone)
			if err := db.Recover(); err != nil {
				recoverErr <- err
				return
			}
			msg := "uniqoptd: recovered " + *data
			if ws, ok := db.Backend().(*wal.Store); ok {
				msg += " (" + ws.Stats().String() + ")"
			}
			fmt.Fprintln(stdout, msg)
			if *load == "demo" {
				// Recover has let sessions in: the load's DDL and inserts
				// must exclude their queries like any session's would.
				loaded := false
				err := srv.Exclusive(func() error {
					if len(db.Store().Catalog().TableNames()) != 0 {
						return nil
					}
					loaded = true
					if err := loadDemo(db); err != nil {
						return err
					}
					return db.Sync()
				})
				if err != nil {
					recoverErr <- fmt.Errorf("load demo: %w", err)
					return
				}
				if loaded {
					fmt.Fprintln(stdout, "uniqoptd: demo supplier database loaded")
				}
			}
			fmt.Fprintln(stdout, "uniqoptd: ready")
		}()
	}

	if ready != nil {
		ready <- daemonHandle{Srv: srv, Addr: ln.Addr().String()}
	}

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigs)

	select {
	case sig := <-sigs:
		fmt.Fprintf(stdout, "uniqoptd: %s — draining (deadline %s)\n", sig, *drainTimeout)
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			fmt.Fprintln(stdout, "uniqoptd: drain deadline hit; in-flight queries cancelled")
		}
		if err := <-serveErr; err != nil {
			fmt.Fprintln(stderr, "uniqoptd: serve:", err)
			return 1
		}
	case err := <-serveErr:
		// Serve returned on its own: nil means someone (a test) shut
		// us down programmatically; an error means the listener died.
		if err != nil {
			fmt.Fprintln(stderr, "uniqoptd: serve:", err)
			return 1
		}
	case err := <-recoverErr:
		// The data directory is unusable (corrupt frame, replay
		// failure, unreadable files). Serving a write-refusing shell
		// forever helps nobody; report and exit nonzero so supervisors
		// notice.
		fmt.Fprintln(stderr, "uniqoptd: recovery failed:", err)
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		srv.Shutdown(ctx)
		<-serveErr
		return 1
	}
	fmt.Fprintln(stdout, "uniqoptd: shutdown complete")
	return 0
}

// syncWriter serializes Write calls from the daemon's goroutines.
type syncWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (s *syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}

// loadDemo fills db with the paper's supplier workload (the same
// dataset sqlsh's \load demo uses): SUPPLIER, PARTS, AGENTS with
// keys and foreign keys intact.
func loadDemo(db *uniqopt.DB) error {
	cfg := workload.DefaultConfig()
	cfg.Suppliers = 25
	cfg.PartsPerSupplier = 4
	fresh, err := workload.NewDB(cfg)
	if err != nil {
		return err
	}
	for _, ddl := range workload.BenchDDL {
		if err := db.Exec(ddl); err != nil {
			return err
		}
	}
	for _, name := range []string{"SUPPLIER", "PARTS", "AGENTS"} { // parents before FK children
		src := fresh.MustTable(name)
		for i := 0; i < src.Len(); i++ {
			if err := db.InsertRow(name, src.Row(i)); err != nil {
				return err
			}
		}
	}
	return nil
}
