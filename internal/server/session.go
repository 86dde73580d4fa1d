package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"uniqopt"
	"uniqopt/internal/sql/ast"
	"uniqopt/internal/sql/lexer"
	"uniqopt/internal/sql/parser"
	"uniqopt/internal/sql/token"
	"uniqopt/internal/value"
)

// preparedStmt is one session-scoped prepared statement: the SQL text
// (re-parameterized per EXEC through the :NAME host-variable
// machinery) and the catalog version it was last validated under.
// The session pins nothing: each EXEC hands the text to the database,
// whose compiled-statement cache — keyed by the text's lifted shape ×
// catalog version × option bits — turns it into the shared, immutable
// compiled statement (verdicts, rewrites, physical plan) at the cost
// of one lexer pass and one map probe. A version-keyed cache is also
// what makes the Reprepared path safe: after DDL the old version's
// entries are unreachable by construction, so an EXEC that observes a
// newer catalog compiles again rather than running a statement
// derived under the old schema.
type preparedStmt struct {
	sql        string
	catVersion uint64
	// insert marks an INSERT statement, which EXEC routes through the
	// durable write path instead of the query engine.
	insert bool
}

// session is one connection's state. All fields are owned by the
// session goroutine; nothing here needs locking because the protocol
// is synchronous per connection.
type session struct {
	id   uint64
	srv  *Server
	conn io.ReadWriteCloser
	br   io.Reader
	// ctx is what this session's statements run under when no
	// QueryTimeout is configured: a child of the server's base context,
	// so the drain deadline's cancellation reaches them, made once per
	// session rather than once per statement.
	ctx      context.Context
	view     *uniqopt.DB // budget-scoped handle; set by HELLO or lazily
	prepared map[string]*preparedStmt
	// reject, when non-nil, makes the session answer its first
	// request with this admission error and close.
	reject *AdmissionError
	// granted budgets, for the HELLO response.
	grantedMaxRows, grantedMem int64

	// The session decodes every request into req, whose Args map is
	// cleared rather than remade: nothing keeps it past its request
	// (a query's compile converts the bindings into a map of its own,
	// an INSERT reads them while it executes).
	req Request
	// resp is a query's response, reset for each query and written
	// before the next request is read; rows holds its encoded rows.
	resp Response
	rows []byte
}

// maxKeptArgs is the most bindings a session's request map may have
// held and still be cleared for the next request rather than remade.
const maxKeptArgs = 64

// run is the session goroutine: read one request, handle it, write
// the response, until the client closes, CLOSE arrives, or Shutdown
// severs the connection.
func (sess *session) run() {
	defer sess.srv.dropSession(sess)
	defer sess.conn.Close()
	ctx, cancel := context.WithCancel(sess.srv.baseCtx)
	defer cancel()
	sess.ctx = ctx
	args := map[string]any{}
	for {
		// A map one large request grew is not kept: clearing it would
		// cost its size on every request after.
		if len(args) > maxKeptArgs {
			args = map[string]any{}
		}
		clear(args)
		sess.req = Request{Args: args}
		req := &sess.req
		if err := ReadFrame(sess.br, req); err != nil {
			// EOF (client gone or Shutdown closed us) ends the
			// session silently; a malformed frame gets a best-effort
			// protocol error before the connection is abandoned —
			// framing cannot be resynchronized after garbage.
			if !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
				sess.write(errorResponse(0, protocolError("bad frame: %v", err)))
			}
			return
		}
		if sess.reject != nil {
			sess.srv.metrics.ObserveRejection()
			sess.write(errorResponse(req.ID, wireError(sess.reject)))
			return
		}
		if !sess.srv.beginRequest() {
			sess.write(errorResponse(req.ID, shutdownError()))
			return
		}
		t0 := time.Now()
		resp, closing := sess.handle(req)
		sess.srv.metrics.ObserveQuery(req.Cmd.shape(), time.Since(t0).Nanoseconds())
		ok := sess.write(resp)
		sess.srv.endRequest()
		if closing || !ok {
			return
		}
	}
}

// write sends one response frame, reporting whether the connection
// is still usable.
func (sess *session) write(resp *Response) bool {
	return WriteFrame(sess.conn, resp) == nil
}

// queryCtx is the context one statement executes under.
func (sess *session) queryCtx() (context.Context, context.CancelFunc) {
	if t := sess.srv.cfg.QueryTimeout; t > 0 {
		return context.WithTimeout(sess.ctx, t)
	}
	return sess.ctx, func() {}
}

// handle dispatches one request; closing is true when the session
// should end after the response is written.
func (sess *session) handle(req *Request) (resp *Response, closing bool) {
	// While the write-ahead log is replaying, the heap is visibly
	// partial: only HELLO (which reports the recovering status) and
	// CLOSE are served; everything else gets a typed refusal so
	// clients can back off and retry instead of reading bad state.
	if sess.srv.db.Recovering() && req.Cmd != CmdHello && req.Cmd != CmdClose {
		return errorResponse(req.ID, recoveringError()), false
	}
	switch req.Cmd {
	case CmdHello:
		return sess.hello(req), false
	case CmdPrepare:
		return sess.prepare(req), false
	case CmdExec:
		return sess.exec(req), false
	case CmdQuery:
		return sess.query(req), false
	case CmdExplain:
		return sess.explain(req), false
	case CmdClose:
		return &Response{ID: req.ID, OK: true}, true
	default:
		return errorResponse(req.ID, protocolError("unsupported command %q", req.Cmd)), false
	}
}

// ensureView makes the budget-scoped DB handle, defaulting the
// budgets when the client never said HELLO.
func (sess *session) ensureView() *uniqopt.DB {
	if sess.view == nil {
		sess.grantBudgets(0, 0)
	}
	return sess.view
}

func (sess *session) grantBudgets(maxRows, memBudget int64) {
	sess.grantedMaxRows = clampBudget(maxRows, sess.srv.cfg.SessionMaxRows)
	sess.grantedMem = clampBudget(memBudget, sess.srv.cfg.SessionMemBudget)
	sess.view = sess.srv.sessionView(maxRows, memBudget)
}

// hello opens (or re-negotiates) the session: budgets are granted
// clamped to the server's ceilings, and the response carries the
// protocol version, catalog version, and sorted table list.
func (sess *session) hello(req *Request) *Response {
	sess.grantBudgets(req.MaxRows, req.MemBudget)
	// The table list and version are read under the DDL lock's read
	// side: a CREATE TABLE writes the catalog's table map under its
	// write side.
	cat := sess.srv.db.Store().Catalog()
	sess.srv.ddlMu.RLock()
	tables, version := cat.TableNames(), cat.Version()
	sess.srv.ddlMu.RUnlock()
	name := sess.srv.cfg.Name
	if name == "" {
		name = "uniqoptd"
	}
	status := "ready"
	if sess.srv.db.Recovering() {
		status = "recovering"
	}
	return &Response{
		ID:             req.ID,
		OK:             true,
		Proto:          ProtocolVersion,
		Server:         name,
		Session:        sess.id,
		Status:         status,
		Tables:         tables,
		MaxRows:        sess.grantedMaxRows,
		MemBudget:      sess.grantedMem,
		CatalogVersion: version,
	}
}

// prepare validates the statement (a query or an INSERT) and binds
// it to a name in this session. Re-preparing a name replaces it,
// like DEALLOCATE + PREPARE.
func (sess *session) prepare(req *Request) *Response {
	if req.Name == "" {
		return errorResponse(req.ID, protocolError("PREPARE requires a statement name"))
	}
	st, err := parser.ParseStatement(req.SQL)
	if err != nil {
		return errorResponse(req.ID, wireError(err))
	}
	_, isInsert := st.(*ast.Insert)
	if _, isDDL := st.(*ast.CreateTable); isDDL {
		return errorResponse(req.ID, protocolError("PREPARE accepts queries and INSERT, not DDL"))
	}
	sess.prepared[req.Name] = &preparedStmt{
		sql:        req.SQL,
		catVersion: sess.srv.db.Store().Catalog().Version(),
		insert:     isInsert,
	}
	return &Response{ID: req.ID, OK: true, CatalogVersion: sess.srv.db.Store().Catalog().Version()}
}

// exec runs a prepared statement with the request's host-variable
// bindings.
func (sess *session) exec(req *Request) *Response {
	ps, ok := sess.prepared[req.Name]
	if !ok {
		return errorResponse(req.ID, &WireError{
			Code: CodeUnknownStmt,
			Msg:  fmt.Sprintf("server: no prepared statement %q in this session", req.Name),
		})
	}
	var resp *Response
	if ps.insert {
		resp = sess.runInsert(req, ps.sql)
	} else {
		resp = sess.runQuery(req, ps.sql)
	}
	if resp.OK && resp.CatalogVersion != ps.catVersion {
		// The schema moved underneath the statement since it was
		// prepared (or last executed). Execution already re-validated
		// it against the new catalog — surface that so the client
		// knows its cached assumptions (column order, verdicts) may
		// have changed.
		resp.Reprepared = true
		ps.catVersion = resp.CatalogVersion
	}
	return resp
}

// query runs a one-shot statement: CREATE TABLE and INSERT take the
// write path (exclusive against in-flight queries, fsynced before
// the acknowledgement), anything else executes as a query. The first
// token tells the three apart; the text is parsed where it is compiled,
// and only when the statement cache does not already hold it, so a
// syntax error comes back from there (wireError types it CodeParse).
func (sess *session) query(req *Request) *Response {
	first, err := lexer.New(req.SQL).Next()
	if err != nil {
		return errorResponse(req.ID, wireError(err))
	}
	switch first.Kind {
	case token.KwCreate:
		return sess.runDDL(req)
	case token.KwInsert:
		return sess.runInsert(req, req.SQL)
	}
	return sess.runQuery(req, req.SQL)
}

// runDDL applies a schema change under the write side of the
// snapshot lock: it waits for in-flight queries, applies, and lets
// the catalog-version bump invalidate every cached verdict derived
// under the old schema.
func (sess *session) runDDL(req *Request) *Response {
	srv := sess.srv
	srv.ddlMu.Lock()
	defer srv.ddlMu.Unlock()
	if err := srv.db.Exec(req.SQL); err != nil {
		return errorResponse(req.ID, wireError(err))
	}
	return &Response{ID: req.ID, OK: true, CatalogVersion: srv.db.Store().Catalog().Version()}
}

// runInsert applies an INSERT under the write side of the snapshot
// lock (it mutates tables concurrent queries are scanning) and syncs
// the write-ahead log before responding: by the time the client sees
// OK, the rows survive kill -9.
func (sess *session) runInsert(req *Request, sql string) *Response {
	srv := sess.srv
	if err := checkArgs(req.Args); err != nil {
		return errorResponse(req.ID, protocolError("%v", err))
	}
	srv.ddlMu.Lock()
	defer srv.ddlMu.Unlock()
	n, err := srv.db.ExecWith(sql, req.Args)
	if err != nil {
		return errorResponse(req.ID, wireError(err))
	}
	// The fsync ack: group commit happens naturally when concurrent
	// sessions' appends land between two syncs.
	if err := srv.db.Sync(); err != nil {
		return errorResponse(req.ID, wireError(err))
	}
	return &Response{
		ID:             req.ID,
		OK:             true,
		RowsAffected:   n,
		CatalogVersion: srv.db.Store().Catalog().Version(),
	}
}

// runQuery executes sql under admission control and the read side of
// the snapshot lock, through the session's budget-scoped view.
func (sess *session) runQuery(req *Request, sql string) *Response {
	srv := sess.srv
	view := sess.ensureView()

	// Admission: one concurrency slot plus this session's memory
	// ceiling from the global pool — the cheap no before any work.
	if err := srv.adm.acquire(sess.grantedMem); err != nil {
		srv.metrics.ObserveRejection()
		return errorResponse(req.ID, wireError(err))
	}
	defer srv.adm.release(sess.grantedMem)

	if err := checkArgs(req.Args); err != nil {
		return errorResponse(req.ID, protocolError("%v", err))
	}

	// Snapshot consistency: hold the read side for the whole
	// execution, so the catalog version observed here is the one the
	// query ran under, start to finish. This span covers the
	// statement-cache probe inside execution, which closes the
	// stale-plan race: DDL (write side) cannot commit between this
	// version read and the cache probe keyed on it, so an EXEC can
	// never run a statement compiled under a catalog version older than
	// the one it reports — it either runs entirely before the DDL (old
	// version, old plan, consistent) or entirely after (new version
	// forces a compile on cache miss).
	srv.ddlMu.RLock()
	defer srv.ddlMu.RUnlock()
	catVersion := srv.db.Store().Catalog().Version()

	ctx, cancel := sess.queryCtx()
	defer cancel()
	// The answer goes straight from the engine's rows into the session's
	// bytes, inside the callback: after it, their memory belongs to the
	// next execution. A buffer one large answer grew is not kept.
	resp := &sess.resp
	*resp = Response{ID: req.ID, OK: true, Rewrite: resp.Rewrite[:0], CatalogVersion: catVersion}
	if cap(sess.rows) > frameChunk {
		sess.rows = nil
	}
	err := view.QueryFunc(ctx, sql, req.Args, !req.Baseline, func(cols []string, rows []value.Row, rewrites []uniqopt.RewriteInfo) {
		resp.Columns = cols
		if len(rows) > 0 {
			sess.rows = appendValueRows(sess.rows[:0], rows)
			resp.encodedRows = sess.rows
		}
		for _, rw := range rewrites {
			resp.Rewrite = append(resp.Rewrite, WireRewrite{Rule: rw.Rule, Description: rw.Description})
		}
	})
	if err != nil {
		return errorResponse(req.ID, wireError(err))
	}
	return resp
}

// explain plans (Analyze=false) or executes (Analyze=true) the query
// and returns the rendered plan tree, rewrites, and provenance
// trace. Like queries, it runs under admission and the snapshot
// lock — EXPLAIN ANALYZE does real work.
func (sess *session) explain(req *Request) *Response {
	srv := sess.srv
	view := sess.ensureView()
	if err := srv.adm.acquire(sess.grantedMem); err != nil {
		srv.metrics.ObserveRejection()
		return errorResponse(req.ID, wireError(err))
	}
	defer srv.adm.release(sess.grantedMem)

	if err := checkArgs(req.Args); err != nil {
		return errorResponse(req.ID, protocolError("%v", err))
	}
	srv.ddlMu.RLock()
	defer srv.ddlMu.RUnlock()
	catVersion := srv.db.Store().Catalog().Version()

	ctx, cancel := sess.queryCtx()
	defer cancel()
	e, err := view.ExplainWith(ctx, req.SQL, req.Args, !req.Baseline, req.Analyze)
	if err != nil {
		return errorResponse(req.ID, wireError(err))
	}
	resp := &Response{
		ID:             req.ID,
		OK:             true,
		Explain:        e.String(),
		CatalogVersion: catVersion,
	}
	for _, rw := range e.Rewrites {
		resp.Rewrite = append(resp.Rewrite, WireRewrite{Rule: rw.Rule, Description: rw.Description})
	}
	return resp
}

// checkArgs refuses, for this request alone, a binding the frame
// decoder could not type: the SQL subset has integers, strings, booleans
// and NULL, and the decoder has already delivered those as int64,
// string, bool and nil.
func checkArgs(args map[string]any) error {
	for k, v := range args {
		if bad, ok := v.(badArg); ok {
			return fmt.Errorf("host :%s: %s", k, string(bad))
		}
	}
	return nil
}
