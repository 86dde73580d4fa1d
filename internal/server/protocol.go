// The uniqoptd wire protocol: length-prefixed JSON frames over a
// byte stream. Every frame is a 4-byte big-endian payload length
// followed by exactly that many bytes of JSON — one Request from the
// client, one Response from the server, strictly request/response in
// order (the protocol is synchronous per connection; concurrency
// comes from opening more connections, each of which is a session).
//
// Commands:
//
//	HELLO    open the session: negotiate budgets, learn the catalog
//	         version, table list, and readiness status ("recovering"
//	         while the server replays its write-ahead log)
//	PREPARE  validate a statement and bind it to a name in the session
//	EXEC     run a prepared statement with :NAME host-variable bindings
//	QUERY    run a one-shot statement (CREATE TABLE, INSERT, or a
//	         query); INSERT is acknowledged only after fsync
//	EXPLAIN  plan (or with Analyze execute) a query and return the
//	         plan tree text and the uniqueness provenance trace
//	CLOSE    end the session
//
// Errors travel as typed WireError values with stable codes, so a
// client can distinguish a blown per-query budget (CodeBudget, with
// resource/limit/used) from an admission rejection (CodeAdmission)
// from a server draining for shutdown (CodeShutdown) without parsing
// message text.
//
// The JSON is written and read by this package's own codec (encode.go,
// decode.go), for *Request and *Response only. Its specification is
// encoding/json: the encoder's bytes are json.Marshal's, and the
// decoder reads a payload as json.Decoder with UseNumber read it into
// the same struct, integers arriving as int64. FuzzFrameCodec checks
// both against encoding/json. The decoder departs from it in two
// places, each a refusal of something encoding/json let through:
//
//  1. A payload is exactly one JSON value. Anything but whitespace
//     after it is refused; Decoder.Decode stopped reading at the
//     value's end and never saw it.
//  2. A cell of Response.Rows is null, a boolean, a string or an
//     integer that fits int64. Any other number, or a nested array or
//     object, fails the frame's decode; encoding/json delivered a
//     json.Number or a nested value that the client then refused.
//
// The same defect in a Request.Args value is not a decode error: the
// frame is well-formed, so the request is refused (CodeProtocol) and
// the session goes on.
package server

import (
	"encoding/binary"
	"fmt"
	"io"
	"slices"
	"sync"
)

// ProtocolVersion is bumped on any incompatible wire change; HELLO
// reports it so clients can refuse servers they do not understand.
const ProtocolVersion = 1

// MaxFrame caps a single frame's payload; a length prefix beyond it
// poisons the connection (there is no way to resynchronize).
const MaxFrame = 16 << 20

// Command is the request verb.
type Command string

// The protocol's commands.
const (
	CmdHello   Command = "HELLO"
	CmdPrepare Command = "PREPARE"
	CmdExec    Command = "EXEC"
	CmdQuery   Command = "QUERY"
	CmdExplain Command = "EXPLAIN"
	CmdClose   Command = "CLOSE"
)

// Request is one client frame.
type Request struct {
	// ID is echoed in the matching Response; clients use it to detect
	// desynchronization.
	ID  uint64  `json:"id"`
	Cmd Command `json:"cmd"`
	// SQL carries the statement for PREPARE/QUERY/EXPLAIN.
	SQL string `json:"sql,omitempty"`
	// Name is the prepared-statement name for PREPARE/EXEC.
	Name string `json:"name,omitempty"`
	// Args bind host variables (:NAME) for EXEC/QUERY/EXPLAIN. Values
	// are JSON scalars: null, true/false, a string, or an integer, which
	// the frame decoder delivers as int64 (the SQL subset has no other
	// number type; a client may bind int or int64).
	Args map[string]any `json:"args,omitempty"`
	// Baseline executes without the uniqueness rewrites.
	Baseline bool `json:"baseline,omitempty"`
	// Analyze turns EXPLAIN into EXPLAIN ANALYZE.
	Analyze bool `json:"analyze,omitempty"`
	// MaxRows/MemBudget on HELLO request per-query budgets for this
	// session; the server clamps them to its configured ceilings.
	MaxRows   int64 `json:"max_rows,omitempty"`
	MemBudget int64 `json:"mem_budget,omitempty"`
}

// Error codes carried by WireError.Code.
const (
	// CodeParse: the statement did not parse.
	CodeParse = "parse"
	// CodeSQL: the statement parsed but failed semantically or during
	// execution (unknown table, unbound host variable, ...).
	CodeSQL = "sql"
	// CodeBudget: the query exceeded its per-session row or memory
	// budget; Resource/Limit/Used carry the governor's accounting.
	CodeBudget = "budget"
	// CodeAdmission: the server refused to start the work — too many
	// sessions, too many concurrent queries, or the global memory
	// pool is exhausted; Resource names which, Limit/Used its state.
	CodeAdmission = "admission"
	// CodeShutdown: the server is draining; no new work is accepted.
	CodeShutdown = "shutdown"
	// CodeCancelled: the query was cancelled (client went away or the
	// server's drain deadline cancelled in-flight work).
	CodeCancelled = "cancelled"
	// CodeInternal: a contained panic; the session survives.
	CodeInternal = "internal"
	// CodeUnknownStmt: EXEC named a statement this session never
	// prepared.
	CodeUnknownStmt = "unknown_statement"
	// CodeRecovering: the server is still replaying its write-ahead
	// log; HELLO and CLOSE work, everything else is refused until
	// recovery completes. Clients should back off and retry.
	CodeRecovering = "recovering"
	// CodeProtocol: malformed frame or unsupported command.
	CodeProtocol = "protocol"
)

// WireError is a typed error on the wire.
type WireError struct {
	Code string `json:"code"`
	Msg  string `json:"msg"`
	// Resource qualifies budget/admission errors ("rows", "memory",
	// "sessions", "concurrency").
	Resource string `json:"resource,omitempty"`
	Limit    int64  `json:"limit,omitempty"`
	Used     int64  `json:"used,omitempty"`
}

// WireRewrite is one applied optimizer transformation.
type WireRewrite struct {
	Rule        string `json:"rule"`
	Description string `json:"description"`
}

// Response is one server frame.
type Response struct {
	ID  uint64     `json:"id"`
	OK  bool       `json:"ok"`
	Err *WireError `json:"err,omitempty"`

	// HELLO fields.
	Proto   int    `json:"proto,omitempty"`
	Server  string `json:"server,omitempty"`
	Session uint64 `json:"session,omitempty"`
	// Status is "ready", or "recovering" while the server replays its
	// write-ahead log (writes and queries are refused until ready).
	Status string `json:"status,omitempty"`
	// Tables is the sorted table list at HELLO time.
	Tables []string `json:"tables,omitempty"`
	// MaxRows/MemBudget echo the granted (possibly clamped) budgets.
	MaxRows   int64 `json:"max_rows,omitempty"`
	MemBudget int64 `json:"mem_budget,omitempty"`

	// Result fields (EXEC/QUERY).
	Columns []string      `json:"columns,omitempty"`
	Rows    [][]any       `json:"rows,omitempty"`
	Rewrite []WireRewrite `json:"rewrites,omitempty"`
	// encodedRows stands for Rows when Rows is empty: the rows array
	// already encoded (appendValueRows). The session encodes a query's
	// answer from the engine's rows while their memory still holds them,
	// and appendResponse splices the bytes in where Rows would go.
	encodedRows []byte
	// RowsAffected counts tuples written by an INSERT. The response is
	// sent only after the rows are fsynced to the write-ahead log.
	RowsAffected int64 `json:"rows_affected,omitempty"`

	// CatalogVersion is the schema version the statement ran against
	// (or, for DDL, the version it produced). A session can detect
	// concurrent DDL by watching it change between responses.
	CatalogVersion uint64 `json:"catalog_version,omitempty"`
	// Reprepared is set on EXEC when the catalog version has moved
	// since PREPARE: the statement was transparently re-validated and
	// its cached uniqueness verdicts re-derived under the new schema.
	Reprepared bool `json:"reprepared,omitempty"`

	// EXPLAIN fields: the rendered plan/trace text and its lines.
	Explain string `json:"explain,omitempty"`
}

// commands pairs each command with the shape name its latency is
// observed under.
var commands = [...]struct {
	cmd   Command
	shape string
}{
	{CmdHello, "cmd.HELLO"}, {CmdPrepare, "cmd.PREPARE"}, {CmdExec, "cmd.EXEC"},
	{CmdQuery, "cmd.QUERY"}, {CmdExplain, "cmd.EXPLAIN"}, {CmdClose, "cmd.CLOSE"},
}

// shape is the metrics shape a request of this command is observed
// under.
func (c Command) shape() string {
	for _, known := range commands {
		if known.cmd == c {
			return known.shape
		}
	}
	return "cmd." + string(c)
}

// frameChunk is how much of a payload ReadFrame asks for at a time, and
// the largest buffer the pool keeps: a length prefix reserves nothing,
// and one large frame does not pin its buffer to a session for good.
const frameChunk = 64 << 10

// frameBuf is one frame's bytes, header and payload, while it is being
// encoded or decoded. Nothing decoded points into it, so it goes back
// to the pool as soon as the frame is written or decoded.
type frameBuf struct{ b []byte }

var frameBufs = sync.Pool{New: func() any { return &frameBuf{b: make([]byte, 0, 1024)} }}

func (fb *frameBuf) release() {
	if cap(fb.b) <= frameChunk {
		frameBufs.Put(fb)
	}
}

// WriteFrame encodes v, a *Request or a *Response, and writes the frame
// — length prefix and payload — with a single call to w.Write.
func WriteFrame(w io.Writer, v any) error {
	fb := frameBufs.Get().(*frameBuf)
	defer fb.release()
	b := append(fb.b[:0], 0, 0, 0, 0) // the length prefix, known once the payload is
	var err error
	switch v := v.(type) {
	case *Request:
		b, err = appendRequest(b, v)
	case *Response:
		b, err = appendResponse(b, v)
	default:
		err = fmt.Errorf("%T is neither *Request nor *Response", v)
	}
	fb.b = b
	if err != nil {
		return fmt.Errorf("server: encode frame: %w", err)
	}
	n := len(b) - 4
	if n > MaxFrame {
		return fmt.Errorf("server: frame of %d bytes exceeds MaxFrame", n)
	}
	binary.BigEndian.PutUint32(b, uint32(n))
	_, err = w.Write(b)
	return err
}

// ReadFrame reads one length-prefixed frame and decodes it into v, a
// *Request or a *Response. The payload is read at most frameChunk bytes
// at a time into a buffer that grows as they arrive, so what a frame
// makes the reader allocate is bounded by what its sender has actually
// sent, not by what its header claims. A frame that ends early is
// io.ErrUnexpectedEOF.
func ReadFrame(r io.Reader, v any) error {
	fb := frameBufs.Get().(*frameBuf)
	defer fb.release()
	hdr := fb.b[:4]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return err
	}
	n := int(binary.BigEndian.Uint32(hdr))
	if n > MaxFrame {
		return fmt.Errorf("server: frame of %d bytes exceeds MaxFrame", n)
	}
	b := fb.b[:0]
	for len(b) < n {
		chunk := min(n-len(b), frameChunk)
		b = slices.Grow(b, chunk)
		m, err := io.ReadFull(r, b[len(b):len(b)+chunk])
		b = b[:len(b)+m]
		fb.b = b
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		if err != nil {
			return err
		}
	}
	return decodeFrame(b, v)
}
