// Package server is the concurrent network front end over a
// uniqopt.DB: a TCP daemon speaking the length-prefixed JSON wire
// protocol (protocol.go), one session per connection with its own
// prepared statements and per-query budgets, admission control that
// maps the engine's resource governor onto server-wide limits
// (admission.go), snapshot-consistent reads versus concurrent DDL,
// and graceful shutdown that drains in-flight queries and then
// cancels stragglers through the same context plumbing every engine
// operator already observes.
//
// Concurrency model. Each connection is served by one goroutine and
// handled strictly request-by-request; cross-session concurrency is
// the only concurrency, which keeps the per-session state (prepared
// statements, negotiated budgets) lock-free. Queries from different
// sessions run truly in parallel against the shared DB: the storage
// layer is read-only during queries, the statement cache and metrics
// registry are concurrency-safe, and a server-wide RWMutex
// serializes DDL against in-flight queries — a query holds the read
// side for its whole execution, so it sees exactly one catalog
// version from planning through execution (snapshot consistency),
// and a CREATE TABLE waits for in-flight queries, applies, bumps the
// catalog version, and thereby invalidates every compiled statement,
// and the uniqueness verdicts in it, derived under the old schema.
package server

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"uniqopt"
	"uniqopt/internal/metrics"
	"uniqopt/internal/sql/lexer"
	"uniqopt/internal/sql/parser"
	"uniqopt/internal/storage"
)

// Config tunes a Server. The zero value means "no limit" for every
// field; DefaultConfig is what uniqoptd starts from.
type Config struct {
	// MaxSessions caps concurrent connections; the first request on a
	// connection over the cap is answered with an admission error and
	// the connection is closed.
	MaxSessions int
	// MaxConcurrent caps queries executing at once across sessions.
	MaxConcurrent int
	// SessionMaxRows / SessionMemBudget are the per-query governor
	// ceilings granted to each session. A HELLO may request lower
	// values; requests above the ceiling are clamped to it.
	SessionMaxRows   int64
	SessionMemBudget int64
	// GlobalMemBudget bounds the sum of admitted queries' memory
	// budgets; it is the server's aggregate query-memory ceiling.
	GlobalMemBudget int64
	// QueryTimeout bounds each statement's execution (0 = none).
	QueryTimeout time.Duration
	// Name is reported in HELLO.
	Name string
}

// DefaultConfig is a production-shaped starting point: enough
// sessions for a connection pool, concurrency near the core count,
// and budgets that keep any one query from monopolizing the process.
func DefaultConfig() Config {
	return Config{
		MaxSessions:      256,
		MaxConcurrent:    64,
		SessionMaxRows:   5_000_000,
		SessionMemBudget: 256 << 20,
		GlobalMemBudget:  2 << 30,
		Name:             "uniqoptd",
	}
}

// Server serves the wire protocol over a listener. Create with New,
// start with Serve (or ListenAndServe), stop with Shutdown.
type Server struct {
	db  *uniqopt.DB
	cfg Config
	adm *admission

	// ddlMu is the snapshot-consistency lock: queries hold the read
	// side end to end, DDL the write side.
	ddlMu sync.RWMutex

	baseCtx context.Context
	cancel  context.CancelFunc

	mu       sync.Mutex // guards ln, sessions, admitted, drain, and reqWG.Add
	ln       net.Listener
	sessions map[*session]struct{} // every live connection, refused ones included
	admitted int                   // the sessions among them that hold a MaxSessions slot
	drain    bool
	reqWG    sync.WaitGroup // in-flight requests (handled + response written)
	connWG   sync.WaitGroup // session loops
	nextSID  atomic.Uint64
	metrics  *metrics.Registry
}

// isDraining reports whether Shutdown has started.
func (s *Server) isDraining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.drain
}

// New builds a server over db. The db's own Options supply the
// optimizer configuration; the server only overrides the per-query
// budgets session by session.
func New(db *uniqopt.DB, cfg Config) *Server {
	ctx, cancel := context.WithCancel(context.Background())
	return &Server{
		db:       db,
		cfg:      cfg,
		adm:      &admission{maxConcurrent: cfg.MaxConcurrent, memBudget: cfg.GlobalMemBudget},
		baseCtx:  ctx,
		cancel:   cancel,
		sessions: map[*session]struct{}{},
		metrics:  metrics.New(),
	}
}

// DB exposes the served database (for preloading data before Serve).
func (s *Server) DB() *uniqopt.DB { return s.db }

// Addr reports the listener address once Serve has been called (nil
// before); with ":0" listeners, tests read the assigned port here.
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Metrics snapshots the server's registry: per-command latency
// histograms and admission rejections.
func (s *Server) Metrics() metrics.Snapshot { return s.metrics.Snapshot() }

// MetricsJSON renders the server metrics snapshot as indented JSON.
func (s *Server) MetricsJSON() ([]byte, error) { return s.metrics.JSON() }

// ListenAndServe listens on addr and serves until Shutdown.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Exclusive runs f holding the write side of the snapshot lock, so
// nothing a session runs — query, DDL or insert — overlaps it. It is how
// the embedding process changes the database behind a serving server:
// uniqoptd loads its demo dataset through it once recovery has let
// sessions in.
func (s *Server) Exclusive(f func() error) error {
	s.ddlMu.Lock()
	defer s.ddlMu.Unlock()
	return f()
}

// Serve accepts connections on ln until Shutdown closes it. It
// returns nil on graceful shutdown, the accept error otherwise.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.ln != nil {
		s.mu.Unlock()
		return errors.New("server: Serve called twice")
	}
	if s.drain {
		s.mu.Unlock()
		return errors.New("server: already shut down")
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if s.isDraining() {
				return nil
			}
			return err
		}
		s.startSession(conn)
	}
}

// Sessions reports how many sessions hold a MaxSessions slot right now:
// the gauge admission is decided against. A refused connection is never
// counted, and a closed one stops counting once its session goroutine
// has unregistered.
func (s *Server) Sessions() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.admitted
}

// startSession registers and launches one connection's session
// goroutine; over the session cap the session is started in rejected
// mode so the refusal travels as a typed protocol error rather than
// an abrupt close. A rejected session is tracked — Shutdown closes its
// connection and waits for its goroutine — but holds no slot: refusals
// must not occupy what they were refused for.
func (s *Server) startSession(conn net.Conn) {
	sess := &session{
		id:       s.nextSID.Add(1),
		srv:      s,
		conn:     conn,
		br:       bufio.NewReader(conn),
		prepared: map[string]*preparedStmt{},
	}
	s.mu.Lock()
	if s.drain {
		s.mu.Unlock()
		conn.Close()
		return
	}
	if s.cfg.MaxSessions > 0 && s.admitted >= s.cfg.MaxSessions {
		sess.reject = &AdmissionError{
			Resource: "sessions",
			Limit:    int64(s.cfg.MaxSessions),
			Used:     int64(s.admitted),
		}
	} else {
		s.admitted++
	}
	s.sessions[sess] = struct{}{}
	s.connWG.Add(1)
	s.mu.Unlock()
	go sess.run()
}

// dropSession unregisters a finished session.
func (s *Server) dropSession(sess *session) {
	s.mu.Lock()
	delete(s.sessions, sess)
	if sess.reject == nil {
		s.admitted--
	}
	s.mu.Unlock()
	s.connWG.Done()
}

// beginRequest marks one request in flight unless the server is
// draining. The flag and the WaitGroup share a mutex so a request
// can never slip in after Shutdown has started waiting.
func (s *Server) beginRequest() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.drain {
		return false
	}
	s.reqWG.Add(1)
	return true
}

func (s *Server) endRequest() { s.reqWG.Done() }

// Shutdown stops the server gracefully: stop accepting, refuse new
// requests with CodeShutdown, let in-flight queries finish — and if
// ctx expires first, cancel them through the engine's cooperative
// context plumbing — then close every connection and wait for the
// session goroutines to exit. Safe to call once; returns ctx's error
// if the drain deadline forced cancellation, nil otherwise.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.drain = true
	ln := s.ln
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}

	done := make(chan struct{})
	go func() {
		s.reqWG.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		// Drain deadline: abort in-flight queries. Every engine
		// operator polls the context, so this unwinds promptly and
		// each aborted query's client gets a CodeCancelled error
		// before the connection closes.
		err = ctx.Err()
		s.cancel()
		<-done
	}

	// Every acknowledged write is already fsynced, but a final sync
	// flushes anything loaders wrote through the embedded API before
	// the process exits. It must happen after the drain (no writer is
	// mid-append) and before the connections are severed.
	// ErrClosed means the store's owner already closed it (Close
	// flushes and fsyncs), which races benignly with Shutdown when the
	// daemon's serve loop returns as the listeners close.
	if !s.db.Recovering() {
		if serr := s.db.Sync(); serr != nil && !errors.Is(serr, storage.ErrClosed) && err == nil {
			err = serr
		}
	}

	// All responses are written; sever the connections so sessions
	// blocked reading the next request exit.
	s.mu.Lock()
	for sess := range s.sessions {
		sess.conn.Close()
	}
	s.mu.Unlock()
	s.connWG.Wait()
	s.cancel()
	return err
}

// clampBudget grants the requested per-query budget under a ceiling:
// 0 requests the ceiling itself, anything above it is clamped.
func clampBudget(requested, ceiling int64) int64 {
	if ceiling <= 0 {
		return requested
	}
	if requested <= 0 || requested > ceiling {
		return ceiling
	}
	return requested
}

// sessionView builds the budget-scoped DB handle a session executes
// through: the shared store, caches, and metrics, with the granted
// MaxRows/MemBudget layered on top of the DB's own options.
func (s *Server) sessionView(maxRows, memBudget int64) *uniqopt.DB {
	opts := s.db.Opts()
	opts.MaxRows = clampBudget(maxRows, s.cfg.SessionMaxRows)
	opts.MemBudget = clampBudget(memBudget, s.cfg.SessionMemBudget)
	return s.db.View(opts)
}

// wireError maps an execution error onto the typed wire form.
func wireError(err error) *WireError {
	var ae *AdmissionError
	if errors.As(err, &ae) {
		return &WireError{Code: CodeAdmission, Msg: ae.Error(), Resource: ae.Resource, Limit: ae.Limit, Used: ae.Used}
	}
	var be *uniqopt.BudgetError
	if errors.As(err, &be) {
		return &WireError{Code: CodeBudget, Msg: be.Error(), Resource: be.Resource, Limit: be.Limit, Used: be.Used}
	}
	var ie *uniqopt.InternalError
	if errors.As(err, &ie) {
		// The stack stays in the server log domain; the wire carries
		// the operator and the panic value.
		return &WireError{Code: CodeInternal, Msg: ie.Error()}
	}
	if errors.Is(err, storage.ErrRecovering) {
		return recoveringError()
	}
	// A syntax error is told by its type, wherever the text was parsed:
	// at PREPARE, or inside the database when a statement is compiled.
	var le *lexer.Error
	var pe *parser.Error
	if errors.As(err, &le) || errors.As(err, &pe) {
		return &WireError{Code: CodeParse, Msg: err.Error()}
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return &WireError{Code: CodeCancelled, Msg: err.Error()}
	}
	return &WireError{Code: CodeSQL, Msg: err.Error()}
}

func recoveringError() *WireError {
	return &WireError{Code: CodeRecovering, Msg: "server: recovering; replaying the write-ahead log — retry shortly"}
}

// errorResponse builds a failed Response for request id.
func errorResponse(id uint64, we *WireError) *Response {
	return &Response{ID: id, OK: false, Err: we}
}

func shutdownError() *WireError {
	return &WireError{Code: CodeShutdown, Msg: "server: draining for shutdown; no new work accepted"}
}

func protocolError(format string, args ...any) *WireError {
	return &WireError{Code: CodeProtocol, Msg: fmt.Sprintf(format, args...)}
}
