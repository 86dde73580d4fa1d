package engine

import (
	"errors"
	"fmt"
	"runtime/debug"
	"sync/atomic"
	"unsafe"

	"uniqopt/internal/fault"
	"uniqopt/internal/value"
)

// This file is the engine's query-lifecycle layer: cooperative
// cancellation, per-query resource budgets, and panic containment.
//
// Cancellation is cooperative. Every iterator polls the caller's
// context at the top of each Next and every cancelEvery rows of a row
// loop inside it (streamGuard, iterator.go), so a cancelled or
// timed-out query stops mid-loop and returns ctx.Err(). A query starts
// no goroutine of its own, so none outlives a failed one.
//
// Budgets are enforced by the Governor of the execution's Scratch
// (Scratch.Budget), which every iterator carved from it charges; the
// context carries only cancellation. Operators charge materialized rows and
// an estimate of their bytes at every materialization point — hash
// table builds, sort buffers, output appends — and receive a typed
// *BudgetError (errors.Is ErrBudgetExceeded) instead of growing
// without bound. Charges are also mirrored into Stats.RowsMaterialized
// and Stats.BytesReserved whether or not a governor is present.
//
// Panics are contained at the query and planner boundaries with
// Contain, which converts them into *InternalError values carrying the
// operator name and stack.

// cancelEvery is the cooperative-cancellation poll interval in rows:
// a row loop checks ctx.Err() on its first step and every cancelEvery
// steps after that.
const cancelEvery = 1024

// chargeBatch bounds how many rows an iterator accumulates before flushing
// a charge to the (atomic) governor, keeping hot loops off the shared
// counters.
const chargeBatch = 256

// Fault-injection point names registered by this package. Builds
// without the fault tag compile every fault.Point call to a nil-return
// no-op.
const (
	FaultScan       = "engine.scan"
	FaultFilter     = "engine.filter"
	FaultHashBuild  = "engine.hashjoin.build"
	FaultHashProbe  = "engine.hashjoin.probe"
	FaultIndexProbe = "engine.indexjoin.probe"
	FaultDistinct   = "engine.distinct"
	FaultSort       = "engine.sort"
	// FaultStreamNext is the per-batch injection point: every streaming
	// operator polls it at the top of Next, so faults can strike between
	// any two batches of a pipeline, not just at operator entry.
	FaultStreamNext = "engine.stream.next"
)

func init() {
	fault.Register(FaultScan, FaultFilter, FaultHashBuild, FaultHashProbe, FaultIndexProbe,
		FaultDistinct, FaultSort, FaultStreamNext)
}

// ErrBudgetExceeded is the sentinel matched (via errors.Is) by every
// *BudgetError a resource governor returns.
var ErrBudgetExceeded = errors.New("engine: query resource budget exceeded")

// BudgetError reports which per-query budget was exhausted and by how
// much. It matches ErrBudgetExceeded under errors.Is.
type BudgetError struct {
	Resource string // "rows" or "memory"
	Limit    int64
	Used     int64
}

func (e *BudgetError) Error() string {
	return fmt.Sprintf("engine: query %s budget exceeded (used %d of %d)",
		e.Resource, e.Used, e.Limit)
}

// Is reports whether target is the ErrBudgetExceeded sentinel.
func (e *BudgetError) Is(target error) bool { return target == ErrBudgetExceeded }

// InternalError is a contained panic: one bad query degrades to this
// error instead of crashing the process. Op names the boundary that
// recovered the panic and Stack is the panicking goroutine's stack.
type InternalError struct {
	Op    string
	Value any
	Stack []byte
}

func (e *InternalError) Error() string {
	return fmt.Sprintf("engine: internal error in %s: %v", e.Op, e.Value)
}

// Unwrap exposes a panic value that was itself an error, so callers
// can errors.Is/As through the containment boundary.
func (e *InternalError) Unwrap() error {
	if err, ok := e.Value.(error); ok {
		return err
	}
	return nil
}

// Governor enforces a per-query resource budget. A zero or negative
// limit disables that dimension, and a nil *Governor is a valid "no
// budget" governor. Charging is atomic: an execution and its subquery
// runs share one governor (Scratch.Sub).
type Governor struct {
	maxRows   int64
	maxBytes  int64
	rows      atomic.Int64
	bytes     atomic.Int64
	peakRows  atomic.Int64
	peakBytes atomic.Int64
}

// reset empties g and sets its limits, for the next execution.
func (g *Governor) reset(maxRows, maxBytes int64) {
	g.maxRows, g.maxBytes = maxRows, maxBytes
	g.rows.Store(0)
	g.bytes.Store(0)
	g.peakRows.Store(0)
	g.peakBytes.Store(0)
}

// Charge accounts rows materialized rows and bytes estimated bytes
// against the budget, returning a *BudgetError on the first charge
// that crosses a limit.
func (g *Governor) Charge(rows, bytes int64) error {
	if g == nil {
		return nil
	}
	// Both dimensions are charged before either is checked: a refused
	// charge is still on the books, so the Release that follows it
	// balances.
	r, b := g.rows.Add(rows), g.bytes.Add(bytes)
	raisePeak(&g.peakRows, r)
	raisePeak(&g.peakBytes, b)
	if g.maxRows > 0 && r > g.maxRows {
		return &BudgetError{Resource: "rows", Limit: g.maxRows, Used: r}
	}
	if g.maxBytes > 0 && b > g.maxBytes {
		return &BudgetError{Resource: "memory", Limit: g.maxBytes, Used: b}
	}
	return nil
}

// raisePeak lifts *p to v unless it is already at least v.
func raisePeak(p *atomic.Int64, v int64) {
	for {
		cur := p.Load()
		if v <= cur || p.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Release returns rows and bytes to the budget. Streaming operators
// release a batch's in-flight charge once the batch has been consumed
// downstream, so a pipeline's live footprint — not its cumulative
// throughput — is what a budget bounds.
func (g *Governor) Release(rows, bytes int64) {
	if g == nil {
		return
	}
	g.rows.Add(-rows)
	g.bytes.Add(-bytes)
}

// Usage reports the rows and estimated bytes currently charged.
func (g *Governor) Usage() (rows, bytes int64) {
	if g == nil {
		return 0, 0
	}
	return g.rows.Load(), g.bytes.Load()
}

// Peak reports the high-water marks of the charged rows and bytes over
// the governor's lifetime. Because iterators release in-flight charges,
// Peak is the query's true peak live footprint.
func (g *Governor) Peak() (rows, bytes int64) {
	if g == nil {
		return 0, 0
	}
	return g.peakRows.Load(), g.peakBytes.Load()
}

// rowBytes estimates the in-memory footprint of a row: slice header
// plus the value structs — sized from the types, so the charge cannot
// drift from them — plus string payloads.
func rowBytes(row value.Row) int64 {
	const header, cell = int64(unsafe.Sizeof(value.Row{})), int64(unsafe.Sizeof(value.Value{}))
	n := header + cell*int64(len(row))
	for i := range row {
		if s, ok := row[i].Str(); ok {
			n += int64(len(s))
		}
	}
	return n
}

// Contain converts a panic into an *InternalError assigned through
// errp. It must be installed with `defer Contain(op, &err)` at a query
// entry boundary (plan.Run, uniqopt.Analyze). A *ContractViolation is the
// engine's own defect, not the query's, and goes on panicking.
func Contain(op string, errp *error) {
	r := recover()
	if r == nil {
		return
	}
	if v, ok := r.(*ContractViolation); ok {
		panic(v)
	}
	if p, ok := r.(*InternalError); ok {
		*errp = p // already contained at an inner boundary
		return
	}
	*errp = &InternalError{Op: op, Value: r, Stack: debug.Stack()}
}
