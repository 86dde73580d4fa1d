// Package engine is a stand-in fixture for the iterator-lifecycle
// rules: iterlife (Next without Close, constructed-but-never-closed
// locals), the ctxflow extension to Next methods (dropped or unused
// contexts detach a pipeline stage from cancellation), and the
// rowalias batch-buffer-reuse rule (a Next that mutates the batch it
// already handed to its consumer).
package engine

import (
	"context"

	"uniqopt/internal/value"
)

// Batch mirrors the engine's batch representation.
type Batch []value.Row

// goodIter honors the full contract: Next threads its context and
// Close releases resources.
type goodIter struct{ rows []value.Row }

func newIter() *goodIter { return &goodIter{} }

func (it *goodIter) Cols() []string { return nil }

func (it *goodIter) Next(ctx context.Context) (Batch, error) {
	return nil, ctx.Err()
}

func (it *goodIter) Close() error { return nil }

// leakyIter declares Next but no Close: nothing can tear it down.
type leakyIter struct{ rows []value.Row } // want "no Close"

func (it *leakyIter) Next(ctx context.Context) (Batch, error) {
	return nil, ctx.Err()
}

// pullOnly is the same hole at the interface level: a pipeline built
// against it has no way to release a stage.
type pullOnly interface { // want "no Close"
	Next(ctx context.Context) (Batch, error)
}

// dropIter discards the context Next receives, so cancellation and
// budget checks can never reach this stage.
type dropIter struct{}

func (it *dropIter) Next(_ context.Context) (Batch, error) { // want "discards its context.Context parameter"
	return nil, nil
}

func (it *dropIter) Close() error { return nil }

// idleIter names its context but never polls or forwards it — the
// stage runs detached just the same.
type idleIter struct{}

func (it *idleIter) Next(ctx context.Context) (Batch, error) { // want "never uses its context parameter"
	return nil, nil
}

func (it *idleIter) Close() error { return nil }

// reuseIter recycles its receiver-field batch across calls: the
// previous batch is already owned by the consumer, so the write
// corrupts rows after handoff.
type reuseIter struct{ buf Batch }

func (it *reuseIter) Next(ctx context.Context) (Batch, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	it.buf[0] = value.Row{value.Value{I: 1}} // want "reuses the receiver batch buffer"
	return it.buf, nil
}

func (it *reuseIter) Close() error { return nil }

// freshIter is the documented pattern: a fresh batch per call.
type freshIter struct{}

func (it *freshIter) Next(ctx context.Context) (Batch, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	out := make(Batch, 0, 1)
	out = append(out, value.Row{value.Value{I: 2}})
	return out, nil
}

func (it *freshIter) Close() error { return nil }

// BadLeak constructs an iterator and exits without closing it or
// giving it to anyone — its resources stay charged forever.
func BadLeak(ctx context.Context) error {
	it := newIter() // want "never closed, returned, or handed off"
	b, err := it.Next(ctx)
	_ = b
	return err
}

// GoodClose owns the iterator for its whole lifetime and closes it.
func GoodClose(ctx context.Context) error {
	it := newIter()
	defer it.Close()
	_, err := it.Next(ctx)
	return err
}

// GoodHandoff transfers ownership to the caller.
func GoodHandoff() *goodIter {
	it := newIter()
	return it
}

// GoodPass transfers ownership to a callee that closes it.
func GoodPass(ctx context.Context) error {
	it := newIter()
	return drainIter(ctx, it)
}

func drainIter(ctx context.Context, it *goodIter) error {
	defer it.Close()
	_, err := it.Next(ctx)
	return err
}

// probeIter is the shape of the index-join iterator: it owns an outer
// child, threads its context to it, and closes it. The first-match
// form passes the outer rows themselves through in a fresh batch per
// call.
type probeIter struct {
	outer  *goodIter
	closed bool
}

func newProbe(outer *goodIter) *probeIter { return &probeIter{outer: outer} }

func (it *probeIter) Next(ctx context.Context) (Batch, error) {
	b, err := it.outer.Next(ctx)
	if err != nil || b == nil {
		return nil, err
	}
	var out Batch
	for _, row := range b {
		out = append(out, row)
	}
	return out, nil
}

func (it *probeIter) Close() error {
	if it.closed {
		return nil
	}
	it.closed = true
	return it.outer.Close()
}

// stickyProbeIter keeps the batch of matched outer rows on the receiver
// and overwrites it on the next call: the rows the consumer holds from
// the previous batch change under it.
type stickyProbeIter struct {
	outer *goodIter
	out   Batch
}

func (it *stickyProbeIter) Next(ctx context.Context) (Batch, error) {
	b, err := it.outer.Next(ctx)
	if err != nil || len(b) == 0 {
		return nil, err
	}
	it.out[0] = b[0] // want "reuses the receiver batch buffer"
	return it.out, nil
}

func (it *stickyProbeIter) Close() error { return it.outer.Close() }

// BadProbeLeak assembles a probe over an outer iterator and walks away
// from both when the first batch fails.
func BadProbeLeak(ctx context.Context) (Batch, error) {
	it := newProbe(newIter()) // want "never closed, returned, or handed off"
	return it.Next(ctx)
}

// GoodProbeClose closes the probe, which closes its outer child.
func GoodProbeClose(ctx context.Context) (Batch, error) {
	it := newProbe(newIter())
	defer it.Close()
	return it.Next(ctx)
}
