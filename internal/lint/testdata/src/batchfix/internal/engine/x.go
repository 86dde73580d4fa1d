// Package engine is the golden fixture for the batchlife analyzer:
// rows and batches obtained from an iterator's Next are immutable
// after handoff, so element writes, copy-into, and mutation through a
// summary-mutating callee are all flagged; consumer-owned copies are
// free to change.
package engine

import (
	"context"

	"uniqopt/internal/value"
)

// Batch mirrors the engine's batch representation.
type Batch []value.Row

type src struct{}

func (s *src) Next(ctx context.Context) (Batch, error) { return nil, ctx.Err() }
func (s *src) Close() error                            { return nil }

// scale writes its row parameter in place; its summary marks the
// parameter mutated, which makes passing a pulled row to it a finding
// at the call site.
func scale(r value.Row, f int64) {
	for i := range r {
		r[i] = value.Value{I: f}
	}
}

// BadElementWrite writes into rows of a batch pulled from Next.
func BadElementWrite(ctx context.Context, s *src) error {
	b, err := s.Next(ctx)
	if err != nil {
		return err
	}
	for _, r := range b {
		r[0] = value.Value{} // want "element write of a row/batch obtained from Next"
	}
	return nil
}

// BadCopyInto reuses a pulled row as a copy destination.
func BadCopyInto(ctx context.Context, s *src) error {
	b, err := s.Next(ctx)
	if err != nil || len(b) == 0 {
		return err
	}
	fresh := make(value.Row, len(b[0]))
	copy(b[0], fresh) // want "copy into of a row/batch obtained from Next"
	return nil
}

// BadCalleeMutation hands a pulled row to a callee whose summary
// mutates it.
func BadCalleeMutation(ctx context.Context, s *src) error {
	b, err := s.Next(ctx)
	if err != nil || len(b) == 0 {
		return err
	}
	scale(b[0], 2) // want "mutation .via callee. of a row/batch obtained from Next"
	return nil
}

// GoodCopyThenWrite copies the pulled row before mutating; the copy is
// consumer-owned.
func GoodCopyThenWrite(ctx context.Context, s *src) error {
	b, err := s.Next(ctx)
	if err != nil || len(b) == 0 {
		return err
	}
	own := make(value.Row, len(b[0]))
	copy(own, b[0])
	own[0] = value.Value{I: 1}
	scale(own, 2)
	return nil
}

// GoodOwnBatch mutates a batch it allocated itself; no taint, no
// finding.
func GoodOwnBatch(n int) Batch {
	b := make(Batch, n)
	for i := range b {
		b[i] = value.Row{{I: int64(i)}}
	}
	return b
}

// BadSemiKeyInPlace is a first-match probe that builds its probe key in
// the outer row it pulled — a row it then passes through to its own
// consumer, and which may be a stored table row.
func BadSemiKeyInPlace(ctx context.Context, s *src, k value.Value) (Batch, error) {
	b, err := s.Next(ctx)
	if err != nil {
		return nil, err
	}
	var out Batch
	for _, outer := range b {
		outer[0] = k // want "element write of a row/batch obtained from Next"
		out = append(out, outer)
	}
	return out, nil
}

// GoodJoinArena is the join form: the pulled outer row is copied into a
// row the operator allocated, and only that row is written.
func GoodJoinArena(ctx context.Context, s *src, inner value.Row) (Batch, error) {
	b, err := s.Next(ctx)
	if err != nil {
		return nil, err
	}
	var out Batch
	keyBuf := make(value.Row, 1)
	for _, outer := range b {
		keyBuf[0] = outer[0]
		nr := make(value.Row, len(outer)+len(inner))
		copy(nr, outer)
		copy(nr[len(outer):], inner)
		out = append(out, nr)
	}
	return out, nil
}
