package engine

import (
	"context"
	"sync/atomic"

	"uniqopt/internal/fault"
	"uniqopt/internal/storage"
	"uniqopt/internal/value"
)

// This file defines the execution core: pull-based iterators that move
// batches (vectors of rows) through a pipeline instead of materializing
// every operator's full output.
//
// The Iterator contract:
//
//   - Next returns the next batch, or (nil, nil) at end of stream.
//     After end of stream or an error, further Next calls return
//     (nil, nil) or the same class of error; they must not panic.
//   - An emitted batch and its rows are immutable after handoff, for the
//     rest of the execution. The producer must not reuse the batch
//     slice or the row storage for a later batch, so consumers may
//     retain rows (hash tables, output buffers, the drained result)
//     without copying. Producers therefore take fresh batch slices and
//     row cells per Next call from the execution's Scratch, or hand out
//     disjoint capacity-clipped windows of rows they never write again
//     (under -tags poison, a Checker fingerprints every emitted batch
//     and fails the execution that changes one; contracts.go). The rule
//     binds whoever wrote the batch, so an operator with nothing to
//     change — the identity projection above a join that already emits
//     the projection's layout — may hand its child's batch on as it
//     came: nobody writes it again, and its consumer may retain it
//     exactly as the operator itself could have.
//   - That memory returns all at once, when the execution's Scratch is
//     Reset. Only the caller that owns the answer may call Reset, once
//     the drained rows have been consumed (DB.execute does, after
//     value.BoxRows has copied them out for QueryWithContext or the
//     daemon's session has encoded them into its response frame): a row
//     read after it reads the next execution's cells, or under -tags
//     poison a sentinel.
//   - Close releases held resources (governor charges, children). It
//     is idempotent, and must be called exactly when the consumer is
//     done, whether or not the stream was drained. Next is never
//     called after Close. Under -tags poison the Checker fails an
//     execution that calls Next after Close, leaves an iterator open,
//     or leaves a charge unreleased.
//   - Next takes the caller's context and must poll it: cancellation
//     is cooperative, batch by batch (and every cancelEvery rows
//     inside blocking phases).
//
// Budget accounting is per batch: a streaming operator charges each
// emitted batch to the governor and releases that charge on the next
// Next call (the batch has been consumed downstream by then), so a
// budget bounds the pipeline's live footprint. Blocking state — join
// build tables, distinct tables, collected inputs — is charged as it
// accrues and released at Close. Transient in-flight batches are
// charged to the governor only; Stats.RowsMaterialized/BytesReserved
// keep their original meaning (rows retained at materialization
// points).

// Batch is a vector of rows flowing through a streaming pipeline.
type Batch []value.Row

// Iterator is the pull-based streaming operator interface. See the
// package comment above for the full contract.
type Iterator interface {
	// Cols names the columns of every emitted row.
	Cols() []string
	// Next returns the next batch, or (nil, nil) at end of stream.
	Next(ctx context.Context) (Batch, error)
	// Close releases held resources; it is idempotent.
	Close() error
}

// DefaultBatchSize is the default target rows per batch: large enough
// to amortize per-batch overhead, small enough to keep a pipeline's
// live footprint a tiny fraction of its throughput.
const DefaultBatchSize = 1024

var batchSizeVal atomic.Int64

func init() { batchSizeVal.Store(DefaultBatchSize) }

// BatchSize reports the current target batch size.
func BatchSize() int { return int(batchSizeVal.Load()) }

// SetBatchSize sets the target batch size (values < 1 reset to the
// default) and returns the previous value, for test scoping.
func SetBatchSize(n int) int {
	prev := int(batchSizeVal.Load())
	if n < 1 {
		n = DefaultBatchSize
	}
	batchSizeVal.Store(int64(n))
	return prev
}

// window returns the batch of rows starting at pos — a capacity-clipped
// subslice, so a consumer's append cannot reach rows — and the position
// after it; the batch is nil once pos has reached the end.
func window(rows []value.Row, pos int) (Batch, int) {
	if pos >= len(rows) {
		return nil, pos
	}
	end := min(pos+BatchSize(), len(rows))
	return Batch(rows[pos:end:end]), end
}

// streamGuard is an iterator's lifecycle state: cooperative
// cancellation plus per-batch governor accounting, against the governor
// of the scratch the iterator was carved from.
// In-flight charges (the last emitted batch) are released on the next
// emit; held charges (blocking state) are released at close.
type streamGuard struct {
	ctx  context.Context
	gov  *Governor
	sc   *Scratch // what the iterator allocates from
	st   *Stats
	iter int
	// in-flight: charge for the last emitted batch.
	inRows, inBytes int64
	// held: charges for blocking state, released at close.
	heldRows, heldBytes int64
	// pending held charges not yet flushed to governor/stats.
	pendRows, pendBytes int64
}

// guard returns the lifecycle state of an iterator carved from sc that
// counts its work in st.
func (sc *Scratch) guard(st *Stats) streamGuard {
	return streamGuard{gov: sc.gov, sc: sc, st: st}
}

// begin starts one Next call: it fires the per-batch fault-injection
// point and polls cancellation. The fault point fires before the poll
// so an injected delay is observed by the poll as an expired deadline.
func (sg *streamGuard) begin(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background()
	}
	sg.ctx = ctx
	if err := fault.Point(FaultStreamNext); err != nil {
		return err
	}
	return ctx.Err()
}

// step polls cancellation every cancelEvery rows of a blocking phase.
func (sg *streamGuard) step() error {
	if sg.iter%cancelEvery == 0 {
		if err := sg.ctx.Err(); err != nil {
			return err
		}
	}
	sg.iter++
	return nil
}

// emit hands off one batch: the previous batch's in-flight charge is
// released and the new batch's is taken. The charge goes to the
// governor only — the rows are transient, not materialized state.
func (sg *streamGuard) emit(b Batch) (Batch, error) {
	sg.releaseInflight()
	sg.st.Batches++
	if sg.gov != nil && len(b) > 0 {
		var bytes int64
		for _, r := range b {
			bytes += rowBytes(r)
		}
		sg.inRows, sg.inBytes = int64(len(b)), bytes
		if err := sg.gov.Charge(sg.inRows, sg.inBytes); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// emitHeld hands off a batch that adds nothing to the live footprint,
// so no in-flight charge is taken: its rows are already charged as held
// state (streaming distinct emits rows retained by its hash table), the
// batch is a window onto storage the query does not own (a scan's
// subslice of the table's rows), or it is the child's own batch passed
// through, which the child's in-flight charge still covers (the identity
// projection).
func (sg *streamGuard) emitHeld(b Batch) (Batch, error) {
	sg.releaseInflight()
	sg.st.Batches++
	return b, nil
}

// keep charges one row of blocking state, flushing every chargeBatch
// rows.
func (sg *streamGuard) keep(row value.Row) error {
	sg.pendRows++
	sg.pendBytes += rowBytes(row)
	if sg.pendRows >= chargeBatch {
		return sg.flushHeld()
	}
	return nil
}

// holdBatch charges a whole batch of blocking state at once.
func (sg *streamGuard) holdBatch(b Batch) error {
	for _, r := range b {
		sg.pendBytes += rowBytes(r)
	}
	sg.pendRows += int64(len(b))
	return sg.flushHeld()
}

// collect drains child into one row slice charged as held state and
// closes it: the input phase of a blocking operator. The slice grows
// through the scratch, doubling.
func (sg *streamGuard) collect(ctx context.Context, child Iterator) ([]value.Row, error) {
	var rows []value.Row
	for {
		b, err := child.Next(ctx)
		if err != nil {
			return nil, err
		}
		if b == nil {
			return rows, child.Close()
		}
		if err := sg.holdBatch(b); err != nil {
			return nil, err
		}
		if cap(rows)-len(rows) < len(b) {
			rows = sg.sc.grow(rows, max(len(b), len(rows)))
		}
		rows = append(rows, b...)
	}
}

// flushHeld pushes pending held charges to the Stats counters and the
// governor. Held rows are materialized state, so they are mirrored
// into RowsMaterialized/BytesReserved.
func (sg *streamGuard) flushHeld() error {
	if sg.pendRows == 0 && sg.pendBytes == 0 {
		return nil
	}
	sg.st.RowsMaterialized += sg.pendRows
	sg.st.BytesReserved += sg.pendBytes
	sg.heldRows += sg.pendRows
	sg.heldBytes += sg.pendBytes
	err := sg.gov.Charge(sg.pendRows, sg.pendBytes)
	sg.pendRows, sg.pendBytes = 0, 0
	return err
}

func (sg *streamGuard) releaseInflight() {
	if sg.inRows != 0 || sg.inBytes != 0 {
		sg.gov.Release(sg.inRows, sg.inBytes)
		sg.inRows, sg.inBytes = 0, 0
	}
}

// close releases every outstanding charge. Safe to call before begin
// and more than once.
func (sg *streamGuard) close() {
	sg.releaseInflight()
	if sg.gov != nil {
		sg.gov.Release(sg.heldRows, sg.heldBytes)
	}
	sg.heldRows, sg.heldBytes = 0, 0
	sg.pendRows, sg.pendBytes = 0, 0
}

// rowsIter streams rows it does not own — a base table's, or an
// already-materialized relation's — in batches. A batch is a
// capacity-clipped window onto the relation's row slice, or onto the
// row windows of one of the table's chunks (storage.Table.Span), so a
// table's batch ends at a chunk boundary: nothing is copied, nothing is
// charged, and an append by a consumer, to the batch or to a row,
// cannot reach the storage. What is read is fixed at construction (for
// a table: the statement's view of it, its first n rows); rows are
// never updated in place.
type rowsIter struct {
	rows    []value.Row
	tbl     *storage.Table // a base-table scan: counts RowsScanned, fires FaultScan
	n       int            // the table's rows the scan reads
	cols    []string
	st      *Stats
	sg      streamGuard
	pos     int
	started bool
}

// QualifiedCols names tbl's columns as a scan under the correlation
// name corr emits them ("CORR.COLUMN").
func QualifiedCols(tbl *storage.Table, corr string) []string {
	cols := make([]string, len(tbl.Schema.Columns))
	for i, c := range tbl.Schema.Columns {
		cols[i] = corr + "." + c.Name
	}
	return cols
}

// NewTableIter returns a streaming scan of tbl, carved from sc; cols
// names its columns as the scan emits them (QualifiedCols).
func NewTableIter(sc *Scratch, st *Stats, tbl *storage.Table, cols []string) Iterator {
	return carve(&sc.frames.rows, rowsIter{tbl: tbl, n: tbl.Len(), cols: cols, st: st, sg: sc.guard(st)})
}

// NewRelationIter returns an iterator over rel's rows, carved from sc.
func NewRelationIter(sc *Scratch, st *Stats, rel *Relation) Iterator {
	return carve(&sc.frames.rows, rowsIter{rows: rel.Rows, cols: rel.Cols, st: st, sg: sc.guard(st)})
}

func (it *rowsIter) Cols() []string { return it.cols }

func (it *rowsIter) Next(ctx context.Context) (Batch, error) {
	if err := it.sg.begin(ctx); err != nil {
		return nil, err
	}
	if it.tbl == nil {
		var b Batch
		if b, it.pos = window(it.rows, it.pos); b == nil {
			return nil, nil
		}
		return it.sg.emitHeld(b)
	}
	if !it.started {
		it.started = true
		if err := fault.Point(FaultScan); err != nil {
			return nil, err
		}
	}
	if it.pos >= it.n {
		return nil, nil
	}
	end := min(it.pos+BatchSize(), it.n, (it.pos/storage.ChunkRows+1)*storage.ChunkRows)
	b := Batch(it.tbl.Span(it.pos, end))
	it.pos = end
	it.st.RowsScanned += int64(len(b))
	return it.sg.emitHeld(b)
}

func (it *rowsIter) Close() error {
	it.sg.close()
	return nil
}

// Drain materializes an iterator into a Relation carved from sc — the
// scratch the pipeline was carved from — and closes it. The result's
// rows are held state of the drain itself: charged as they arrive, left
// charged while the result lives (a query's governor dies with the
// query), and given back if the drain fails. The batches are kept as
// they arrive — they are immutable after handoff — and copied once, at
// the end, into a row slice of exactly the result's size, taken from
// the scratch like the rows themselves. The Relation, its rows and its
// column list (the pipeline's, which may be the plan's own) are valid
// until that scratch is reset, and are not the caller's to change.
func Drain(ctx context.Context, sc *Scratch, st *Stats, it Iterator) (*Relation, error) {
	defer it.Close()
	sg := sc.guard(st)
	drained := false
	defer func() {
		if !drained { // an error, or a panic on its way to Contain
			sg.close()
		}
	}()
	var first [4]Batch // most results arrive in a batch or two
	batches, n := first[:0], 0
	for {
		if err := sg.begin(ctx); err != nil {
			return nil, err
		}
		b, err := it.Next(ctx)
		if err != nil {
			return nil, err
		}
		if b == nil {
			break
		}
		if err := sg.holdBatch(b); err != nil {
			return nil, err
		}
		batches, n = append(batches, b), n+len(b)
	}
	drained = true
	out := carve(&sc.frames.relations, Relation{Cols: it.Cols()})
	if n > 0 {
		out.Rows = sc.batch(n)
		for _, b := range batches {
			out.Rows = append(out.Rows, b...)
		}
	}
	return out, nil
}
