// Package uniqopt is a query-optimization library that reproduces
// Paulley & Larson, "Exploiting Uniqueness in Query Optimization"
// (ICDE 1994): detection of redundant DISTINCT clauses via derived
// key/functional dependencies (Theorem 1 / Algorithm 1), the
// subquery ↔ join transformations (Theorem 2, Corollary 1), and the
// set-operation ↔ EXISTS transformations (Theorem 3, Corollary 2,
// plus the EXCEPT variants), together with an executable SQL subset,
// a constraint-enforcing storage engine, and planners that measure
// what the rewrites buy.
//
// Quick start:
//
//	db := uniqopt.Open()
//	db.Exec(`CREATE TABLE SUPPLIER (SNO INTEGER, SNAME VARCHAR,
//	         PRIMARY KEY (SNO))`)
//	db.Insert("SUPPLIER", 1, "Smith")
//	a, _ := db.Analyze(`SELECT DISTINCT SNO, SNAME FROM SUPPLIER`)
//	fmt.Println(a.DistinctRedundant) // true — SNO is the key
//
// The deeper substrates — the IMS hierarchical simulator and the OODB
// navigational simulator of the paper's Section 6 — live in
// internal/ims and internal/oodb and are exercised by the examples and
// the benchmark harness.
package uniqopt

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"uniqopt/internal/catalog"
	"uniqopt/internal/core"
	"uniqopt/internal/engine"
	"uniqopt/internal/metrics"
	"uniqopt/internal/plan"
	"uniqopt/internal/sql/ast"
	"uniqopt/internal/sql/lexer"
	"uniqopt/internal/sql/parser"
	"uniqopt/internal/storage"
	"uniqopt/internal/storage/wal"
	"uniqopt/internal/value"
	"uniqopt/internal/vcache"
)

// DB is a database with the uniqueness-aware optimizer attached. The
// default backend is in-memory; OpenPersistent swaps in the
// write-ahead-logged disk backend without changing any other API.
// Every statement is compiled once per shape — its text with the
// literals lifted out — into a per-DB cache keyed on shape and schema
// version, so a repeated statement, whatever its literals, skips
// parsing, Algorithm 1, the rewrites and planning entirely; DDL
// invalidates the cache automatically. The compiled statement is the
// only place a verdict is kept: the analyzer itself remembers nothing.
//
// Queries on one DB may run side by side, from any number of
// goroutines. A write — an INSERT or DDL, through Exec or ExecWith —
// must exclude every other call on that DB, queries included: tables
// and their key indexes take no lock of their own. The daemon holds a
// read-write lock for this, queries on its read side and writes on its
// write side; an embedded caller that writes while it queries must do
// the same.
type DB struct {
	store storage.Store
	opts  Options
	stmts *vcache.Cache[*statement]
	// stats accumulates engine work counters across every query this
	// DB has executed (merged atomically; see EngineCounters). It is a
	// pointer so View handles share one accumulator with their parent.
	stats *engine.Stats
	// metrics accumulates per-shape latency histograms and governor
	// rejections (see Metrics).
	metrics *metrics.Registry
	// frames recycles the memory executions allocate from, shared with
	// View handles like the counters.
	frames *framePool
	// planners are the baseline and the optimizing planner under this
	// handle's options, built with the handle: planners[1] applies the
	// rewrites.
	planners [2]*plan.Planner
}

// Options bound what one query may hold. The optimizer itself has no
// switches: every DB runs the one analyzer (analyzerOptions).
type Options struct {
	// MaxRows caps the rows a single query may hold live at once: its
	// blocking state (hash tables, sort buffers), the batches in flight
	// between its operators, and its result (0 = unlimited). Exceeding
	// it aborts the query with an error matching ErrBudgetExceeded.
	MaxRows int64
	// MemBudget caps the estimated bytes of the same live footprint
	// (0 = unlimited).
	MemBudget int64
}

// analyzerOptions is the analyzer every DB runs: Algorithm 1 with its
// three sound extensions — key-FD closure, IS NULL binding and the
// import of column = constant CHECKs on NOT NULL columns. The paper's
// Algorithm 1 as written stays reachable through core.Options, for the
// experiments that reproduce its tables.
var analyzerOptions = core.Options{UseKeyFDs: true, BindIsNull: true, UseCheckConstraints: true}

// ErrBudgetExceeded is the sentinel matched (via errors.Is) by every
// budget failure, regardless of which resource ran out.
var ErrBudgetExceeded = engine.ErrBudgetExceeded

// BudgetError is the concrete error returned when a query exceeds its
// MaxRows or MemBudget; it names the resource and reports the limit
// and observed usage.
type BudgetError = engine.BudgetError

// InternalError wraps a panic contained at an executor or planner
// boundary, carrying the operator name and the goroutine stack at the
// point of panic.
type InternalError = engine.InternalError

// Open creates an empty database.
func Open() *DB { return OpenWith(Options{}) }

// OpenWith creates an empty database with the given query budgets.
func OpenWith(opts Options) *DB {
	return newDB(storage.NewDB(catalog.New()), opts)
}

// OpenPersistent opens (or creates) a crash-safe database in the data
// directory dir: every DDL statement and inserted row goes through a
// write-ahead log, sealed periodically into a finished generation, and
// a restart replays the durable prefix through the same
// constraint-enforcing paths the live system uses. Recovery runs
// before OpenPersistent returns; see OpenPersistentDeferred for the
// server's listen-first variant. Call Sync to make recent inserts
// durable and Close before process exit.
func OpenPersistent(dir string, opts Options) (*DB, error) {
	db, err := OpenPersistentDeferred(dir, opts)
	if err != nil {
		return nil, err
	}
	if err := db.Recover(); err != nil {
		db.Close()
		return nil, err
	}
	return db, nil
}

// OpenPersistentDeferred opens the data directory without replaying
// it: the database is immediately usable for Recovering checks but
// refuses reads of meaningful state and all writes (with an error
// matching storage.ErrRecovering) until Recover completes. Servers
// use this to bind their listener first and replay in the background.
func OpenPersistentDeferred(dir string, opts Options) (*DB, error) {
	st, err := wal.Open(dir, wal.DefaultOptions)
	if err != nil {
		return nil, err
	}
	return newDB(st, opts), nil
}

func newDB(st storage.Store, opts Options) *DB {
	return (&DB{
		store:   st,
		opts:    opts,
		stmts:   vcache.New[*statement](0),
		stats:   &engine.Stats{},
		metrics: metrics.New(),
		frames:  &framePool{},
	}).withPlanners()
}

// withPlanners builds d's two planners, over its store and options,
// and returns d.
func (d *DB) withPlanners() *DB {
	for i, optimize := range []bool{false, true} {
		d.planners[i] = plan.NewPlanner(d.store.Heap(), plan.Options{
			ApplyRewrites: optimize,
			Core:          analyzerOptions,
			MaxRows:       d.opts.MaxRows,
			MemBudget:     d.opts.MemBudget,
		})
	}
	return d
}

// Recover replays persisted state (no-op completion for the in-memory
// backend, which opens recovered). See OpenPersistentDeferred.
func (d *DB) Recover() error { return d.store.Recover() }

// Recovering reports whether the backend is still replaying persisted
// state; writes are refused until it returns false.
func (d *DB) Recovering() bool { return d.store.Recovering() }

// Sync makes every acknowledged-pending write durable — the fsync
// barrier. A no-op on the in-memory backend.
func (d *DB) Sync() error { return d.store.Sync() }

// Checkpoint seals the live write-ahead log and starts the next
// generation, which bounds the one file that is open for write and may
// end torn after a crash. It rewrites no row and does not shorten a
// restart (recovery re-inserts every row either way). A no-op on the
// in-memory backend.
func (d *DB) Checkpoint() error { return d.store.Checkpoint() }

// Close flushes and fsyncs the backend and releases its files. The
// in-memory backend closes trivially.
func (d *DB) Close() error { return d.store.Close() }

// View returns a handle onto the same database with different
// Options: it shares this DB's storage, statement cache, metrics
// registry, and cumulative counters, but queries issued through the
// view run under the view's options. This is the per-session budget
// mechanism of the network server — each session gets a view whose
// MaxRows/MemBudget cap its queries without constraining anyone
// else's, while every statement-cache hit and latency observation
// still lands in the shared registries.
func (d *DB) View(opts Options) *DB {
	return (&DB{
		store:   d.store,
		opts:    opts,
		stmts:   d.stmts,
		stats:   d.stats,
		metrics: d.metrics,
		frames:  d.frames,
	}).withPlanners()
}

// Opts reports the options this handle executes under.
func (d *DB) Opts() Options { return d.opts }

// Exec runs a write statement: CREATE TABLE or INSERT INTO … VALUES.
func (d *DB) Exec(sql string) error {
	_, err := d.ExecWith(sql, nil)
	return err
}

// ExecWith runs a write statement with host-variable bindings and
// reports the rows affected (0 for DDL, the tuple count for INSERT —
// all-or-nothing: the first constraint violation rejects the
// statement's remaining tuples too). On the persistent backend DDL is
// immediately durable; inserted rows become durable at the next Sync.
// The call's binding vector lives in a frame from the pool, recycled
// once execInsert has copied its values into the stored rows. A write
// must not run while any other call on d does (see DB).
func (d *DB) ExecWith(sql string, hosts map[string]any) (int64, error) {
	f := d.frames.get()
	c, err := d.compile(f, sql, hosts, false, true)
	var n int64
	switch {
	case err != nil:
	case c.ddl != nil:
		_, err = d.store.ApplyDDL(sql, c.ddl)
	default:
		n, err = d.execInsert(c.insert, c.vals)
	}
	d.recycle(f, err)
	return n, err
}

// insertCell is one VALUES element, resolved when the statement is
// compiled to where its value comes from at execution.
type insertCell struct {
	slot int         // ≥ 0: a slot of the call's binding vector
	v    value.Value // else: NULL, TRUE or FALSE as written
}

// insertStmt is a compiled INSERT: its table, tuples and host variables.
type insertStmt struct {
	table string
	rows  [][]insertCell
	hosts []string
}

// compileInsert resolves a lifted INSERT (parser.ParseLifted: the n-th
// literal reads as the reserved host variable $n, which no source text
// can spell) of nlits literals into cells; a value is a literal or a
// host variable, never a general expression.
func compileInsert(ins *ast.Insert, nlits int) (*insertStmt, error) {
	out := &insertStmt{table: ins.Table, rows: make([][]insertCell, len(ins.Rows))}
	for r, tuple := range ins.Rows {
		cells := make([]insertCell, len(tuple))
		for i, e := range tuple {
			cells[i].slot = -1
			switch e := e.(type) {
			case *ast.BoolLit:
				cells[i].v = value.Bool(e.V)
			case *ast.NullLit:
				cells[i].v = value.Null
			case *ast.HostVar:
				if n, ok := lexer.LiftedOrdinal(e.Name); ok {
					cells[i].slot = n - 1
					break
				}
				h := slices.Index(out.hosts, e.Name)
				if h < 0 {
					h, out.hosts = len(out.hosts), append(out.hosts, e.Name)
				}
				cells[i].slot = nlits + h
			default:
				return nil, fmt.Errorf("uniqopt: INSERT value is %T, not a literal or host variable", e)
			}
		}
		out.rows[r] = cells
	}
	return out, nil
}

// execInsert binds each VALUES tuple from the call's binding vector and
// routes it through the backend's constraint-enforcing insert path.
func (d *DB) execInsert(ins *insertStmt, vals []value.Value) (int64, error) {
	var n int64
	for _, cells := range ins.rows {
		row := make(value.Row, len(cells))
		for i, cell := range cells {
			if row[i] = cell.v; cell.slot >= 0 {
				row[i] = vals[cell.slot]
			}
		}
		if err := d.store.InsertOwned(ins.table, row); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}

// Insert adds a row; Go values are converted (int/int64 → INTEGER,
// string → VARCHAR, bool → BOOLEAN, nil → NULL).
func (d *DB) Insert(table string, values ...any) error {
	row := make(value.Row, len(values))
	for i, v := range values {
		cv, err := Convert(v)
		if err != nil {
			return fmt.Errorf("uniqopt: value %d: %w", i, err)
		}
		row[i] = cv
	}
	return d.store.InsertOwned(table, row)
}

// InsertRow adds an already-typed row through the backend's
// constraint-enforcing (and, when persistent, WAL-logged) insert
// path. Loaders that copy rows between databases use this instead of
// writing to Store() directly, so bulk loads survive a restart. The
// database stores a copy: the caller may reuse row.
func (d *DB) InsertRow(table string, row value.Row) error {
	return d.store.Insert(table, row)
}

// Convert maps a Go value to a SQL value.
func Convert(v any) (value.Value, error) {
	switch x := v.(type) {
	case nil:
		return value.Null, nil
	case int:
		return value.Int(int64(x)), nil
	case int64:
		return value.Int(x), nil
	case string:
		return value.String_(x), nil
	case bool:
		return value.Bool(x), nil
	case value.Value:
		return x, nil
	default:
		return value.Null, fmt.Errorf("unsupported Go type %T", v)
	}
}

// Rows is a materialized query result.
type Rows struct {
	Columns []string
	// Data holds each row's cells as int64, string, bool or nil (NULL).
	// It holds no engine memory: the execution's rows were copied out
	// before their memory went back to the DB for the next query, so Data
	// is the caller's to keep and to modify.
	Data [][]any
	// Stats are the engine work counters for the execution.
	Stats engine.Stats
	// Rewrites lists the transformations the optimizer applied
	// (empty when executed with Optimize=false).
	Rewrites []RewriteInfo
}

// RewriteInfo describes one applied transformation.
type RewriteInfo struct {
	Rule        string
	Description string
	Before      string
	After       string
}

// Query parses, optimizes, and executes a SQL query with no host
// variables.
func (d *DB) Query(sql string) (*Rows, error) {
	return d.QueryWithContext(context.Background(), sql, nil, true)
}

// QueryContext is Query under a context: cancellation and deadlines
// are observed cooperatively inside every engine operator, the
// configured MaxRows/MemBudget are enforced,
// and a panic anywhere in planning or execution is contained into an
// *InternalError rather than crashing the caller. On error the
// returned Rows is nil — partial results never escape.
func (d *DB) QueryContext(ctx context.Context, sql string) (*Rows, error) {
	return d.QueryWithContext(ctx, sql, nil, true)
}

// QueryBaseline executes the query exactly as written (no rewrites) —
// the comparison point for the optimizer's effect.
func (d *DB) QueryBaseline(sql string) (*Rows, error) {
	return d.QueryWithContext(context.Background(), sql, nil, false)
}

// QueryWith executes a query with host-variable bindings (Go values),
// optionally applying the uniqueness rewrites first.
func (d *DB) QueryWith(sql string, hosts map[string]any, optimize bool) (*Rows, error) {
	return d.QueryWithContext(context.Background(), sql, hosts, optimize)
}

// QueryWithContext is QueryWith under a context; see QueryContext for
// the lifecycle guarantees.
func (d *DB) QueryWithContext(ctx context.Context, sql string, hosts map[string]any, optimize bool) (*Rows, error) {
	var out *Rows
	err := d.execute(ctx, sql, hosts, optimize, func(res *plan.Result) {
		// The column list is the compiled plan's: the caller gets a copy.
		out = &Rows{Columns: slices.Clone(res.Rel.Cols), Stats: res.Stats, Rewrites: rewriteInfos(res.Rewrites)}
		// The answer is copied out of the scratch before it is reset:
		// every row a capacity-clipped window of one slab, so an append
		// by the caller cannot reach its neighbour.
		out.Data = value.BoxRows(res.Rel.Rows, len(res.Rel.Cols))
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// QueryFunc is QueryWithContext for a caller that only reads the
// answer: instead of copying the rows out, it hands consume the
// engine's own, before their memory goes back to the DB. The rows and
// their cells are valid only while consume runs; a row or a string
// read after it returns may hold the next execution's cells. consume
// is not called when the query fails.
func (d *DB) QueryFunc(ctx context.Context, sql string, hosts map[string]any, optimize bool,
	consume func(cols []string, rows []value.Row, rewrites []RewriteInfo)) error {
	return d.execute(ctx, sql, hosts, optimize, func(res *plan.Result) {
		consume(res.Rel.Cols, res.Rel.Rows, rewriteInfos(res.Rewrites))
	})
}

// execute is the one path of a query: take a frame from the pool,
// compile into it, execute on it, observe, hand a successful result to
// consume, and recycle the frame — after consume returns, so consume may
// read the result and the rows the frame backs, and nothing after it
// can.
func (d *DB) execute(ctx context.Context, sql string, hosts map[string]any, optimize bool, consume func(*plan.Result)) error {
	t0 := time.Now()
	f := d.frames.get()
	c, err := d.compile(f, sql, hosts, optimize, false)
	if err != nil {
		d.recycle(f, err)
		return err
	}
	res, err := d.planner(optimize).Execute(ctx, f, c.query, c.vals, false)
	d.observeQuery(c.shape, time.Since(t0), err)
	if err == nil {
		res.Stats.Add(c.stats)
		d.stats.Add(res.Stats)
		consume(res)
	}
	d.recycle(f, err)
	return err
}

// recycle resets an execution's frame and returns it to the pool, once
// nothing reads the result or the rows it backs. A contained panic may
// have left it mid-write, so such a frame is dropped instead.
func (d *DB) recycle(f *plan.Frame, err error) {
	if err != nil {
		var ie *InternalError
		if errors.As(err, &ie) {
			return
		}
	}
	f.Scratch.Reset()
	d.frames.put(f)
}

// framePool holds the frames no execution is using. One sits in a slot
// of its own, so that a caller running one query at a time gets the
// same frame back whichever processor it runs on — a sync.Pool alone
// keeps a returned frame where only that processor's next Get finds
// it, and every miss grows a fresh one. Concurrent executions take the
// others from the sync.Pool, which lets the collector drop them once
// they go unused.
type framePool struct {
	last atomic.Pointer[plan.Frame]
	pool sync.Pool
}

func (p *framePool) get() *plan.Frame {
	if f := p.last.Swap(nil); f != nil {
		return f
	}
	if f, ok := p.pool.Get().(*plan.Frame); ok {
		return f
	}
	return plan.NewFrame()
}

func (p *framePool) put(f *plan.Frame) {
	if !p.last.CompareAndSwap(nil, f) {
		p.pool.Put(f)
	}
}

// statement is one compiled statement shape — what the statement cache
// holds. It is immutable: everything that varies between executions of
// a shape (its binding vector) lives in the call.
type statement struct {
	// shape is the lifted statement text (lexer.Shape): the source of the
	// entry's first cache key, and what the metrics registry keys its
	// histograms on, whichever key the entry was reached by.
	shape string
	// nlits is the length of the shape's literal vector. Only an entry
	// with none may be reached by a statement's text itself.
	nlits int
	// Exactly one of these is set: a query carries its rewrites and
	// physical plan, an INSERT its resolved tuple list.
	query  *plan.Compiled
	insert *insertStmt
}

// call is one execution's view of a statement: the shared compiled
// entry plus this call's bindings.
type call struct {
	*statement
	// ddl is a CREATE TABLE, which bypasses lifting and the cache (the
	// embedded statement is then nil).
	ddl *ast.CreateTable
	// vals is the call's binding vector, carved from the execution's
	// frame: the statement's literals, then the caller's host variables.
	vals []value.Value
	// stats carries this call's one statement-cache hit or miss.
	stats engine.Stats
}

// compile is the single entry point from SQL text to something
// executable. The statement cache is keyed on source text, catalog
// version and option bits, and a statement is filed under two sources:
// its shape (lexer.Shape: the text with its literals lifted out) and,
// when it has no literals, its own text. A verbatim repeat of such a
// text therefore costs one hash of it: no lexer pass, no shape. Any
// other text takes one lexer pass, which writes its shape into the
// frame's buffer and its literals into the call's binding vector, and
// probes again under the shape's bytes. Either hit goes straight to
// execution: no parse, no normal forms, no Algorithm 1, no rewriting,
// no join ordering, and no allocation — the vector is carved from f's
// scratch, and the shape is copied into a string only on a miss, to be
// filed. A miss parses the lifted token stream, compiles it and files
// the result, unless compiling failed. write selects the kind of
// statement the caller executes: Exec takes CREATE TABLE and INSERT, the
// query entry points take queries. The call, and the rows it binds, are
// valid until f's scratch is reset. A host variable left out is refused
// with the call still returned, for a plan-only EXPLAIN to render
// (bindHosts).
func (d *DB) compile(f *plan.Frame, sql string, hosts map[string]any, optimize, write bool) (call, error) {
	p := d.planner(optimize)
	// The version is read once, before compiling, and keys every probe
	// and store: a DDL committing mid-compile can never file a statement
	// derived under the older catalog beneath the newer version.
	ver, bits := d.store.Catalog().Version(), p.Opts.CompileBits()
	var c call
	// A text that merely spells a shape ("… = ?int") reaches that shape's
	// entry here; its literal count sends it on to the lexer, which
	// refuses the '?'.
	if st, ok := d.stmts.Peek(vcache.Key{Src: sql, CatVer: ver, Opts: bits}); ok && st.nlits == 0 {
		c.statement = st
	}
	byText, outOfRange := c.statement != nil, false
	if !byText {
		var err error
		f.Shape, c.vals, err = lexer.Shape(f.Shape[:0], nil, sql, f.GrowCells)
		defer f.ReleaseShape()
		if outOfRange = errors.Is(err, lexer.ErrRange); err != nil && !outOfRange {
			return call{}, err
		}
		if len(f.Shape) == 0 {
			st, err := parser.ParseStatement(sql)
			if err != nil {
				return call{}, err
			}
			if !write {
				return call{}, fmt.Errorf("parser: statement is %T, not a query", st)
			}
			return call{ddl: st.(*ast.CreateTable)}, nil
		}
		c.statement, _ = d.stmts.PeekBytes(f.Shape, ver, bits)
	}
	if err := checkHosts(hosts); err != nil {
		return call{}, err
	}
	if outOfRange {
		// Report it (or whatever syntax error precedes it) exactly as the
		// unlifted parser does.
		if _, err := parser.ParseStatement(sql); err != nil {
			return call{}, err
		}
		return call{}, lexer.ErrRange
	}
	// The one hit-or-miss count of this call.
	d.stmts.Count(c.statement != nil)
	if c.statement != nil {
		c.stats.AddPlanCache(1, 0)
	} else {
		c.stats.AddPlanCache(0, 1)
	}
	if c.statement == nil {
		parsed, err := parser.ParseLifted(sql)
		if err != nil {
			return call{}, err
		}
		c.statement = &statement{shape: string(f.Shape), nlits: len(c.vals)}
		switch x := parsed.(type) {
		case *ast.Insert:
			if c.insert, err = compileInsert(x, c.nlits); err != nil {
				return call{}, err
			}
		case ast.Query:
			if !write {
				c.query, err = p.Compile(x)
				if err != nil {
					return call{}, err
				}
			}
		}
		// A statement of the wrong kind is refused below, not filed.
		if (c.insert != nil) == write {
			d.stmts.Put(vcache.Key{Src: c.shape, CatVer: ver, Opts: bits}, c.statement)
		}
	}
	switch {
	case write && c.insert == nil:
		return call{}, errors.New("uniqopt: Exec accepts CREATE TABLE and INSERT; use Query for queries")
	case !write && c.insert != nil:
		return call{}, errors.New("parser: statement is *ast.Insert, not a query")
	}
	// A literal-free text that came by way of the lexer answers for
	// itself from now on (in canonical spelling it already does: it is
	// its own shape).
	if !byText && c.nlits == 0 && sql != c.shape {
		d.stmts.Put(vcache.Key{Src: sql, CatVer: ver, Opts: bits}, c.statement)
	}
	err := c.bindHosts(f, hosts)
	return c, err
}

// checkHosts type-checks every host binding, used or not.
func checkHosts(hosts map[string]any) error {
	for k, v := range hosts {
		if _, err := Convert(v); err != nil {
			return fmt.Errorf("uniqopt: host :%s: %w", k, err)
		}
	}
	return nil
}

// bindHosts extends the binding vector, the literals so far, to the
// statement's width, carving it from f, and fills the host slots from
// the caller's bindings, by name, refusing one left out; the vector is
// then the literals alone.
func (c *call) bindHosts(f *plan.Frame, hosts map[string]any) error {
	base, names, width := c.nlits, []string(nil), 0
	if c.query != nil {
		base, names, width = c.query.Lits, c.query.Params[c.query.Lits:], c.query.Width
	} else {
		names, width = c.insert.hosts, base+len(c.insert.hosts)
	}
	c.vals = f.GrowCells(c.vals, width-len(c.vals))[:width]
	for i, name := range names {
		v, ok := hosts[name]
		if !ok {
			c.vals = c.vals[:base]
			return fmt.Errorf("uniqopt: unbound host variable :%s", name)
		}
		c.vals[base+i], _ = Convert(v) // checkHosts has type-checked it
	}
	return nil
}

// rewriteInfos converts the optimizer's applied rewrites for the API.
func rewriteInfos(aps []core.Applied) []RewriteInfo {
	if len(aps) == 0 {
		return nil
	}
	out := make([]RewriteInfo, len(aps))
	for i, ap := range aps {
		out[i] = RewriteInfo{
			Rule:        string(ap.Rule),
			Description: ap.Description,
			Before:      ap.Before,
			After:       ap.After,
		}
	}
	return out
}

// planner is this handle's optimizing planner, or its baseline one.
func (d *DB) planner(optimize bool) *plan.Planner {
	if optimize {
		return d.planners[1]
	}
	return d.planners[0]
}

// observeQuery records one execution into the metrics registry: shape
// latency and, on a budget error, a governor rejection.
func (d *DB) observeQuery(shape string, elapsed time.Duration, err error) {
	d.metrics.ObserveQuery(shape, elapsed.Nanoseconds())
	if errors.Is(err, ErrBudgetExceeded) {
		d.metrics.ObserveRejection()
	}
}

// Explanation is the result of EXPLAIN / EXPLAIN ANALYZE: the
// physical plan tree, the optimizer's rewrite decisions, and the
// uniqueness analyzer's provenance trace (how Algorithm 1 reached its
// verdict — which equalities bound which columns, and per FROM table
// the candidate key that satisfied the coverage test or the table
// that blocked it).
type Explanation struct {
	// Root is the plan tree; for ANALYZE its nodes carry rows in/out,
	// batches and per-operator wall time.
	Root *plan.Node
	// Analyzed reports whether the plan was really executed (EXPLAIN
	// ANALYZE) or only rendered (EXPLAIN).
	Analyzed bool
	// Rewrites lists the transformations the optimizer applied.
	Rewrites []RewriteInfo
	// Trace is the analyzer's provenance, one fact per line,
	// deterministically ordered.
	Trace []string
	// KeysUsed renders the verdict's per-table deciding keys, sorted.
	KeysUsed []string
	// Stats are the engine work counters (zero unless Analyzed).
	Stats engine.Stats
}

// Explain plans the query — applying the uniqueness rewrites — and
// reports the plan tree plus the analyzer's provenance trace, without
// executing anything or reading any table data.
func (d *DB) Explain(sql string) (*Explanation, error) {
	return d.ExplainWith(context.Background(), sql, nil, true, false)
}

// ExplainAnalyze executes the query for real and reports the plan
// tree annotated with per-operator row counts and wall times, plus the
// analyzer's provenance trace.
func (d *DB) ExplainAnalyze(sql string) (*Explanation, error) {
	return d.ExplainWith(context.Background(), sql, nil, true, true)
}

// ExplainWith is the general form: host-variable bindings, optional
// rewriting, and a choice between plan-only (analyze=false: the
// compiled statement's plan tree is rendered, ctx is not consulted) and
// real execution (analyze=true). Plan-only, host variables may be left
// out: each then renders as written, in the plan non-NULL values
// execute. Explain runs are not recorded in the metrics registry, so
// profiling a workload is not skewed by inspecting it.
func (d *DB) ExplainWith(ctx context.Context, sql string, hosts map[string]any, optimize, analyze bool) (*Explanation, error) {
	f := d.frames.get()
	c, err := d.compile(f, sql, hosts, optimize, false)
	if c.statement == nil || err != nil && analyze {
		d.recycle(f, err)
		return nil, err
	}
	out := &Explanation{Analyzed: analyze}
	if analyze {
		res, err := d.planner(optimize).Execute(ctx, f, c.query, c.vals, true)
		if err == nil {
			out.Root, out.Rewrites, out.Stats = res.Root, rewriteInfos(res.Rewrites), res.Stats.Snapshot()
		}
		d.recycle(f, err)
		if err != nil {
			return nil, err
		}
	} else {
		out.Root, out.Rewrites = c.query.Render(c.vals), rewriteInfos(c.query.Rewrites(c.vals))
		d.recycle(f, nil)
	}
	// The provenance trace explains the verdict on the query as
	// written, which the compiled statement carries.
	if v := c.query.Verdict; v != nil {
		out.Trace = v.Trace.Lines()
		out.KeysUsed = v.KeysUsedLines()
	}
	return out, nil
}

// String renders the explanation as text: the plan tree (with metrics
// when Analyzed), then the rewrites and the analyzer trace.
func (e *Explanation) String() string {
	var sb strings.Builder
	sb.WriteString(e.Root.Format(e.Analyzed))
	if len(e.Rewrites) > 0 {
		sb.WriteString("rewrites:\n")
		for _, r := range e.Rewrites {
			fmt.Fprintf(&sb, "  %s: %s\n", r.Rule, r.Description)
		}
	}
	if len(e.Trace) > 0 {
		sb.WriteString("uniqueness analysis:\n")
		for _, l := range e.Trace {
			sb.WriteString("  " + l + "\n")
		}
	}
	if len(e.KeysUsed) > 0 {
		sb.WriteString("keys used:\n")
		for _, l := range e.KeysUsed {
			sb.WriteString("  " + l + "\n")
		}
	}
	return sb.String()
}

// JSON renders the explanation as indented JSON (plan tree, rewrites,
// trace).
func (e *Explanation) JSON() ([]byte, error) {
	return json.MarshalIndent(struct {
		Root     *plan.Node    `json:"plan"`
		Analyzed bool          `json:"analyzed"`
		Rewrites []RewriteInfo `json:"rewrites,omitempty"`
		Trace    []string      `json:"trace,omitempty"`
		KeysUsed []string      `json:"keys_used,omitempty"`
	}{e.Root, e.Analyzed, e.Rewrites, e.Trace, e.KeysUsed}, "", "  ")
}

// Analysis is the user-facing uniqueness report for a query.
type Analysis struct {
	// Unique reports the analyzer proved the result duplicate-free.
	Unique bool
	// DistinctRedundant is Unique for a query that spells DISTINCT.
	DistinctRedundant bool
	// BoundColumns is Algorithm 1's final V set.
	BoundColumns []string
	// KeysUsed names the candidate key found bound for each table.
	KeysUsed map[string][]string
	// DerivedKeys are the candidate keys of the derived table.
	DerivedKeys [][]string
	// MissingTable names the table blocking a YES verdict, if any.
	MissingTable string
}

// Analyze runs Algorithm 1 on a query and reports the verdict.
func (d *DB) Analyze(sql string) (*Analysis, error) {
	return d.AnalyzeContext(context.Background(), sql)
}

// AnalyzeContext is Analyze under a context. Algorithm 1 itself is
// fast and in-memory, so the context is checked once up front and the
// analyzer is wrapped in panic containment — a cancelled ctx returns
// its error, and an analyzer panic surfaces as *InternalError rather
// than crashing the caller.
func (d *DB) AnalyzeContext(ctx context.Context, sql string) (res *Analysis, err error) {
	defer func() {
		if err != nil {
			res = nil
		}
	}()
	defer engine.Contain("uniqopt.Analyze", &err)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	q, err := parser.ParseQuery(sql)
	if err != nil {
		return nil, err
	}
	an := d.analyzer()
	v, err := an.AnalyzeQuery(q)
	if err != nil {
		return nil, err
	}
	out := &Analysis{
		Unique:       v.Unique,
		BoundColumns: v.Bound,
		KeysUsed:     v.KeysUsed,
		DerivedKeys:  v.DerivedKeys,
		MissingTable: v.MissingTable,
	}
	if s, ok := q.(*ast.Select); ok && s.Quant.IsDistinct() {
		out.DistinctRedundant = v.Unique
	}
	return out, nil
}

// Suggest returns every rewrite the optimizer would consider for the
// query, without executing anything.
func (d *DB) Suggest(sql string) ([]RewriteInfo, error) {
	q, err := parser.ParseQuery(sql)
	if err != nil {
		return nil, err
	}
	aps, err := d.analyzer().Suggest(q)
	if err != nil {
		return nil, err
	}
	return rewriteInfos(aps), nil
}

// analyzer is the analyzer every planner of d runs.
func (d *DB) analyzer() *core.Analyzer { return d.planners[1].An }

// CacheCounters reports (0, 0): the analyzer keeps no cache of its own.
//
// Deprecated: compiled statements are the only cache; see
// PlanCacheCounters.
func (d *DB) CacheCounters() (hits, misses int64) { return 0, 0 }

// PlanCacheCounters reports the cumulative hits and misses of the
// compiled-statement cache, which is where physical plans live: a hit
// is a statement that went from text to execution without compiling.
func (d *DB) PlanCacheCounters() (hits, misses int64) { return d.stmts.Counters() }

// EngineCounters reports the cumulative engine work counters across
// every query executed on this DB (a consistent atomic snapshot).
func (d *DB) EngineCounters() engine.Stats { return d.stats.Snapshot() }

// GovernorCounters reports the cumulative resource-governor charges
// across every query executed on this DB: rows and estimated bytes
// charged at materialization points (hash-table inserts, sort
// buffers, operator outputs). They advance whether or not a budget is
// configured, so they double as a cheap footprint profile.
func (d *DB) GovernorCounters() (rows, bytes int64) {
	st := d.stats.Snapshot()
	return st.RowsMaterialized, st.BytesReserved
}

// Metrics reports a deterministic snapshot of this DB's observability
// registry: per-query-shape latency histograms and governor
// rejections.
func (d *DB) Metrics() metrics.Snapshot { return d.metrics.Snapshot() }

// MetricsJSON renders the metrics snapshot as indented JSON.
func (d *DB) MetricsJSON() ([]byte, error) { return d.metrics.JSON() }

// PublishMetrics registers this DB's metrics registry on the
// process-wide expvar endpoint under name (panics, like
// expvar.Publish, if the name is already taken).
func (d *DB) PublishMetrics(name string) { d.metrics.Publish(name) }

// Store exposes the underlying heap storage for advanced integrations
// (the IMS/OODB loaders, the benchmark harness). Writes through this
// handle bypass the write-ahead log — on a persistent database they
// will not survive a restart; use Exec/Insert for durable writes.
func (d *DB) Store() *storage.DB { return d.store.Heap() }

// Backend exposes the storage.Store the database writes through.
func (d *DB) Backend() storage.Store { return d.store }

// CreateIndex builds an ordered secondary index on the named table,
// enabling the planner's point/range access paths.
func (d *DB) CreateIndex(table, name string, columns ...string) error {
	t, ok := d.store.Heap().Table(table)
	if !ok {
		return fmt.Errorf("uniqopt: unknown table %s", table)
	}
	_, err := t.CreateOrderedIndex(name, columns...)
	return err
}

// CheckExact runs the exact (exponential) Theorem-1 test for a query
// specification over small domains (core.DefaultDomains): each column
// takes two values of its type, every literal its table's CHECKs and
// the query's WHERE compare it with, and NULL where allowed; each host
// variable takes the values of the columns it is compared with. It
// returns whether the query is duplicate-free over those domains and,
// when it is not, a human-readable witness — two qualifying rows that
// agree on the projection. maxCombos caps the enumeration (0 =
// 5,000,000); exceeding it returns an error, which is the practical
// face of the NP-completeness the paper notes.
func (d *DB) CheckExact(sql string, maxCombos int) (unique bool, witness string, err error) {
	s, err := parser.ParseSelect(sql)
	if err != nil {
		return false, "", err
	}
	if maxCombos <= 0 {
		maxCombos = 5_000_000
	}
	an := d.analyzer()
	domains, err := core.DefaultDomains(d.store.Catalog(), s)
	if err != nil {
		return false, "", err
	}
	u, w, err := an.ExactUniqueness(s, domains, maxCombos)
	if err != nil {
		return false, "", err
	}
	if w != nil {
		witness = w.String()
	}
	return u, witness, nil
}
