// Package engine is the golden fixture for the iterstate analyzer:
// flow-sensitive use-after-Close and duplicate-Close detection over
// branches, loops, field chains, and summary-closing callees.
package engine

import "context"

// Batch stands in for an emitted row batch.
type Batch []int

type src struct{ n int }

func newSrc() *src { return &src{} }

func (s *src) Next(ctx context.Context) (Batch, error) { return nil, ctx.Err() }
func (s *src) Rewind()                                 { s.n = 0 }
func (s *src) Close() error                            { return nil }

// drain closes its argument before returning; its summary carries the
// close to every caller.
func drain(ctx context.Context, it *src) error {
	defer it.Close()
	for {
		b, err := it.Next(ctx)
		if err != nil {
			return err
		}
		if b == nil {
			return nil
		}
	}
}

// BadUseAfterClose pulls from an iterator it already closed.
func BadUseAfterClose(ctx context.Context) error {
	it := newSrc()
	it.Close()
	_, err := it.Next(ctx) // want "Next called on it after it was closed"
	return err
}

// BadRewindAfterClose rewinds a closed iterator; the buffers Rewind
// would replay were released by Close.
func BadRewindAfterClose(ctx context.Context) error {
	it := newSrc()
	if _, err := it.Next(ctx); err != nil {
		return err
	}
	if err := it.Close(); err != nil {
		return err
	}
	it.Rewind() // want "Rewind called on it after it was closed"
	return nil
}

// BadDoubleClose closes the same binding twice; the second call is
// dead code hiding an ownership confusion.
func BadDoubleClose() error {
	it := newSrc()
	if err := it.Close(); err != nil {
		return err
	}
	return it.Close() // want "duplicate Close"
}

// BadSummaryClose hands the iterator to drain — whose summary closes
// its parameter — and then pulls from it anyway.
func BadSummaryClose(ctx context.Context) error {
	it := newSrc()
	if err := drain(ctx, it); err != nil {
		return err
	}
	_, err := it.Next(ctx) // want "Next called on it after it was closed"
	return err
}

type pair struct{ left, right *src }

// BadFieldClose tracks field chains: p.left is closed, then pulled.
func BadFieldClose(ctx context.Context, p *pair) error {
	if err := p.left.Close(); err != nil {
		return err
	}
	_, err := p.left.Next(ctx) // want "Next called on p.left after it was closed"
	return err
}

// GoodBranchClose closes on one branch and pulls on the other; the
// facts never meet.
func GoodBranchClose(ctx context.Context, done bool) error {
	it := newSrc()
	if done {
		return it.Close()
	}
	if _, err := it.Next(ctx); err != nil {
		it.Close()
		return err
	}
	return it.Close()
}

// GoodLoopRebind constructs a fresh iterator each iteration; the
// Close at the bottom of the loop does not leak into the next
// iteration's new binding.
func GoodLoopRebind(ctx context.Context, n int) error {
	for i := 0; i < n; i++ {
		it := newSrc()
		if _, err := it.Next(ctx); err != nil {
			it.Close()
			return err
		}
		it.Close()
	}
	return nil
}

// GoodDeferClose registers teardown without killing the binding.
func GoodDeferClose(ctx context.Context) error {
	it := newSrc()
	defer it.Close()
	_, err := it.Next(ctx)
	return err
}

// GoodSiblingField closes one field and pulls from the other.
func GoodSiblingField(ctx context.Context, p *pair) error {
	if err := p.left.Close(); err != nil {
		return err
	}
	_, err := p.right.Next(ctx)
	return err
}

// probe is the shape of the index-join iterator: it owns its outer
// child and closes it exactly once.
type probe struct {
	outer  *src
	closed bool
}

func (j *probe) Next(ctx context.Context) (Batch, error) { return j.outer.Next(ctx) }

func (j *probe) Close() error {
	if j.closed {
		return nil
	}
	j.closed = true
	return j.outer.Close()
}

// BadProbeEarlyRelease closes the outer child once the probe key turns
// out to match nothing — and the next call still pulls from it.
func BadProbeEarlyRelease(ctx context.Context, j *probe, never bool) (Batch, error) {
	if never {
		if err := j.outer.Close(); err != nil {
			return nil, err
		}
	}
	return j.outer.Next(ctx) // want "Next called on j.outer after it was closed"
}

// GoodProbeDrain pulls until the end of stream and closes the probe
// once; the probe's own Close is what reaches the outer child.
func GoodProbeDrain(ctx context.Context, j *probe) error {
	defer j.Close()
	for {
		b, err := j.Next(ctx)
		if err != nil || b == nil {
			return err
		}
	}
}
