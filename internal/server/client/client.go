// Package client is the Go client for the uniqoptd wire protocol:
// it dials a server, opens a session with HELLO, and exposes
// Prepare/Exec/Query/Explain over the length-prefixed JSON framing
// defined in internal/server. One Client is one session; it holds
// one connection and serializes requests on it (the protocol is
// synchronous per connection), so concurrent load wants one Client
// per goroutine — exactly the shape of a connection pool.
//
// Server-side failures come back as *RemoteError carrying the wire
// code. Budget overruns satisfy errors.Is(err, uniqopt.ErrBudgetExceeded),
// so code written against the embedded library's typed errors works
// unchanged against the network.
package client

import (
	"bufio"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"syscall"
	"time"

	"uniqopt"
	"uniqopt/internal/server"
)

// Options tune session negotiation at HELLO.
type Options struct {
	// MaxRows / MemBudget request per-query budgets; the server
	// clamps them to its session ceilings (0 requests the ceiling).
	MaxRows   int64
	MemBudget int64
}

// ServerInfo is what HELLO reported.
type ServerInfo struct {
	Proto   int
	Server  string
	Session uint64
	// Status is "ready", or "recovering" while the server replays its
	// write-ahead log (every command but HELLO/CLOSE is refused with
	// CodeRecovering until it turns ready).
	Status string
	// Tables is the catalog's sorted table list at HELLO time.
	Tables []string
	// MaxRows / MemBudget are the granted per-query budgets.
	MaxRows   int64
	MemBudget int64
	// CatalogVersion is the schema version at HELLO time.
	CatalogVersion uint64
}

// Result is a query's materialized answer.
type Result struct {
	Columns []string
	// Rows hold int64, string, bool, or nil cells.
	Rows [][]any
	// Rewrites names the optimizer transformations applied.
	Rewrites []server.WireRewrite
	// CatalogVersion is the schema version the query ran under.
	CatalogVersion uint64
	// Reprepared reports (on Exec) that the schema changed since
	// Prepare and the statement was re-validated under the new one.
	Reprepared bool
	// RowsAffected counts tuples written by an INSERT; the server
	// fsyncs them to its write-ahead log before acknowledging.
	RowsAffected int64
}

// RemoteError is a server-reported failure. Code is one of the
// server.Code* constants; budget errors additionally carry the
// governor's resource/limit/used accounting.
type RemoteError struct {
	Code     string
	Msg      string
	Resource string
	Limit    int64
	Used     int64
}

func (e *RemoteError) Error() string {
	return fmt.Sprintf("remote: %s: %s", e.Code, e.Msg)
}

// Is maps wire codes back onto the library's sentinels: a CodeBudget
// error matches uniqopt.ErrBudgetExceeded, so errors.Is works the
// same against a server as against an embedded DB.
func (e *RemoteError) Is(target error) bool {
	return target == uniqopt.ErrBudgetExceeded && e.Code == server.CodeBudget
}

// Client is one session on one connection. Methods are safe for
// concurrent use but serialize on the connection; use one Client per
// worker for parallelism.
type Client struct {
	mu     sync.Mutex
	conn   net.Conn
	br     *bufio.Reader // responses: one read syscall per frame, not two
	nextID uint64
	info   ServerInfo
	closed bool
	// req and resp are the frames of the round trip in flight, reused
	// from one to the next under mu.
	req  server.Request
	resp server.Response
}

// Dial connects, says HELLO with default budgets, and returns a
// ready session.
func Dial(addr string) (*Client, error) {
	return DialOptions(addr, Options{})
}

// DialOptions is Dial with budget negotiation.
func DialOptions(addr string, opts Options) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &Client{conn: conn, br: bufio.NewReader(conn)}
	info, err := c.hello(opts)
	if err != nil {
		conn.Close()
		return nil, err
	}
	c.info = *info
	return c, nil
}

// dialRetryAttempts is how many connection attempts DialRetry makes
// before giving up.
const dialRetryAttempts = 3

// DialRetry is DialOptions with transient-failure tolerance: a dial
// that fails with a network error (connection refused while the
// server is still binding, a reset, a timeout) is retried up to
// three times with capped, jittered backoff. Non-network failures —
// a bad address, a protocol-version mismatch, a server that answers
// and refuses — are returned immediately; retrying cannot fix them.
func DialRetry(addr string, opts Options) (*Client, error) {
	backoff := 50 * time.Millisecond
	const capped = 500 * time.Millisecond
	var lastErr error
	for attempt := 0; attempt < dialRetryAttempts; attempt++ {
		if attempt > 0 {
			// Full jitter over the current backoff window, so a herd of
			// clients restarting against one server spreads out.
			time.Sleep(time.Duration(rand.Int63n(int64(backoff))) + backoff/2)
			if backoff *= 2; backoff > capped {
				backoff = capped
			}
		}
		c, err := DialOptions(addr, opts)
		if err == nil {
			return c, nil
		}
		lastErr = err
		var ne net.Error
		if !errors.As(err, &ne) && !errors.Is(err, syscall.ECONNREFUSED) && !errors.Is(err, syscall.ECONNRESET) {
			return nil, err
		}
	}
	return nil, fmt.Errorf("client: %d dial attempts failed: %w", dialRetryAttempts, lastErr)
}

// Info reports the session's HELLO result.
func (c *Client) Info() ServerInfo { return c.info }

// hello negotiates the session.
func (c *Client) hello(opts Options) (*ServerInfo, error) {
	resp, err := c.roundTrip(server.Request{
		Cmd:       server.CmdHello,
		MaxRows:   opts.MaxRows,
		MemBudget: opts.MemBudget,
	})
	if err != nil {
		return nil, err
	}
	if resp.Proto != server.ProtocolVersion {
		return nil, fmt.Errorf("client: server speaks protocol %d, want %d", resp.Proto, server.ProtocolVersion)
	}
	return &ServerInfo{
		Proto:          resp.Proto,
		Server:         resp.Server,
		Session:        resp.Session,
		Status:         resp.Status,
		Tables:         resp.Tables,
		MaxRows:        resp.MaxRows,
		MemBudget:      resp.MemBudget,
		CatalogVersion: resp.CatalogVersion,
	}, nil
}

// Refresh re-runs HELLO (same budgets as the response grants) to
// pick up the current table list and catalog version.
func (c *Client) Refresh() (*ServerInfo, error) {
	info, err := c.hello(Options{MaxRows: c.info.MaxRows, MemBudget: c.info.MemBudget})
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.info = *info
	c.mu.Unlock()
	return info, nil
}

// Prepare validates sql on the server and binds it to name in this
// session; re-preparing a name replaces it.
func (c *Client) Prepare(name, sql string) error {
	_, err := c.roundTrip(server.Request{Cmd: server.CmdPrepare, Name: name, SQL: sql})
	return err
}

// Exec runs a prepared statement with host-variable bindings (Go
// values: int/int64, string, bool, nil).
func (c *Client) Exec(name string, args map[string]any) (*Result, error) {
	resp, err := c.roundTrip(server.Request{Cmd: server.CmdExec, Name: name, Args: args})
	if err != nil {
		return nil, err
	}
	return toResult(&resp), nil
}

// Query runs a one-shot statement: CREATE TABLE or a query. For DDL
// the Result has no rows and carries the new catalog version.
func (c *Client) Query(sql string) (*Result, error) {
	return c.QueryArgs(sql, nil)
}

// QueryArgs is Query with host-variable bindings.
func (c *Client) QueryArgs(sql string, args map[string]any) (*Result, error) {
	resp, err := c.roundTrip(server.Request{Cmd: server.CmdQuery, SQL: sql, Args: args})
	if err != nil {
		return nil, err
	}
	return toResult(&resp), nil
}

// Explain returns the server's rendered plan tree, rewrites, and
// uniqueness provenance trace; analyze executes the query for real
// and annotates the tree with per-operator metrics.
func (c *Client) Explain(sql string, analyze bool) (string, []server.WireRewrite, error) {
	resp, err := c.roundTrip(server.Request{Cmd: server.CmdExplain, SQL: sql, Analyze: analyze})
	if err != nil {
		return "", nil, err
	}
	return resp.Explain, resp.Rewrite, nil
}

// Close ends the session: best-effort CLOSE frame, then the
// connection. Safe to call twice.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	// Best-effort goodbye; the server also handles abrupt closes.
	c.nextID++
	_ = server.WriteFrame(c.conn, &server.Request{ID: c.nextID, Cmd: server.CmdClose})
	var resp server.Response
	_ = server.ReadFrame(c.br, &resp)
	return c.conn.Close()
}

// Abandon closes the connection without the CLOSE handshake — the
// rude disconnect. Tests use it to prove the server survives
// clients that vanish.
func (c *Client) Abandon() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	return c.conn.Close()
}

// roundTrip sends one request and reads its response, enforcing id
// matching and unwrapping wire errors. The frames go through the
// client's own request and response; the response is reset before each
// decode, so the one returned shares no storage with the next call's.
func (c *Client) roundTrip(req server.Request) (server.Response, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return server.Response{}, errors.New("client: session closed")
	}
	c.nextID++
	c.req = req
	c.req.ID = c.nextID
	err := server.WriteFrame(c.conn, &c.req)
	c.req = server.Request{} // keeps no caller's bindings
	if err != nil {
		return server.Response{}, fmt.Errorf("client: send: %w", err)
	}
	c.resp = server.Response{}
	if err := server.ReadFrame(c.br, &c.resp); err != nil {
		return server.Response{}, fmt.Errorf("client: receive: %w", err)
	}
	resp := c.resp
	if resp.ID != c.nextID {
		return server.Response{}, fmt.Errorf("client: response id %d for request %d; session desynchronized", resp.ID, c.nextID)
	}
	if !resp.OK {
		if resp.Err == nil {
			return server.Response{}, errors.New("client: server reported failure without an error")
		}
		return server.Response{}, &RemoteError{
			Code:     resp.Err.Code,
			Msg:      resp.Err.Msg,
			Resource: resp.Err.Resource,
			Limit:    resp.Err.Limit,
			Used:     resp.Err.Used,
		}
	}
	return resp, nil
}

// toResult presents a response as a Result. The rows are the ones the
// frame decoder built: it delivers int64, string, bool and nil cells and
// refuses a frame carrying anything else.
func toResult(resp *server.Response) *Result {
	return &Result{
		Columns:        resp.Columns,
		Rows:           resp.Rows,
		Rewrites:       resp.Rewrite,
		CatalogVersion: resp.CatalogVersion,
		Reprepared:     resp.Reprepared,
		RowsAffected:   resp.RowsAffected,
	}
}
