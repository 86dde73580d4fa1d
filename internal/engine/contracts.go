package engine

import (
	"context"
	"fmt"
	"math/bits"

	"uniqopt/internal/value"
)

// Checker enforces the Iterator contract (iterator.go) at run time over
// one execution. The planner installs it around every iterator it
// assembles when the poison build tag is set (Poisoned); other builds
// never construct one, so their pipelines are exactly what the planner
// built. It checks four things:
//
//   - Next is never called after Close.
//   - Every wrapped iterator has been closed when the execution ends,
//     on success and on error.
//   - The governor the execution created for itself holds, when the
//     execution ends, exactly the drained result's charge (nothing, if
//     the execution failed): every operator released what it charged.
//   - An emitted batch is immutable after handoff, for the rest of the
//     execution. Each batch is fingerprinted — its row headers and their
//     cells — when it is emitted, and the fingerprint is checked again
//     before and after the next Next and, for every batch the iterator
//     emitted, at its Close and when the execution ends. A consumer that
//     writes into a row it pulled (even after its producer closed, as a
//     blocking operator sorting what it collected would), or a producer
//     that reuses a batch it already handed out, changes a fingerprint.
//
// A violation panics with a *ContractViolation, which Contain does not
// contain: it is a defect of the engine, not of the query, and fails the
// test that drove the execution. The checks cover only the paths an
// execution takes; the batch-size sweep and the fault matrix are what
// make those paths broad.
type Checker struct {
	gov *Governor
	// The iterators under the checker: the first ones in its own
	// allocation, so that checking a short pipeline costs the poison
	// build's allocation bounds next to nothing.
	n    int
	own  [8]checkedIter
	more []*checkedIter
}

// ContractViolation is a breach of the Iterator contract found by a
// Checker.
type ContractViolation struct{ Msg string }

func (v *ContractViolation) Error() string {
	return "engine: iterator contract violated: " + v.Msg
}

func violate(format string, args ...any) {
	panic(&ContractViolation{Msg: fmt.Sprintf(format, args...)})
}

// NewChecker returns a checker for one execution. gov is the governor
// the execution created for itself, whose balance Verify checks; nil
// when the governor is the caller's (it may be shared) or when the
// execution's charges are not all the pipeline's to release.
func NewChecker(gov *Governor) *Checker { return &Checker{gov: gov} }

// Wrap returns it under the checker.
func (c *Checker) Wrap(it Iterator) Iterator {
	var w *checkedIter
	if c.n < len(c.own) {
		w = &c.own[c.n]
		c.n++
	} else {
		w = &checkedIter{}
		c.more = append(c.more, w)
	}
	w.it = it
	return w
}

// Verify checks the end-of-execution contracts: every wrapped iterator
// has been closed, no batch has changed since it was emitted, and the
// governor holds exactly result's charge — the drained rows Drain
// leaves charged — or nothing when result is nil.
func (c *Checker) Verify(result *Relation) {
	for i := range c.own[:c.n] {
		c.own[i].verifyEnd()
	}
	for _, w := range c.more {
		w.verifyEnd()
	}
	if c.gov == nil {
		return
	}
	var rows, bytes int64
	if result != nil {
		rows = int64(len(result.Rows))
		for _, r := range result.Rows {
			bytes += rowBytes(r)
		}
	}
	if r, b := c.gov.Usage(); r != rows || b != bytes {
		violate("the governor holds %d rows / %d bytes at the end of the execution, want %d / %d for its result",
			r, b, rows, bytes)
	}
}

// checkedIter is one iterator under a Checker, with every batch it
// emitted and that batch's fingerprint.
type checkedIter struct {
	it      Iterator
	emitted []stamp
	first   [1]stamp // emitted's storage until a second batch
	closed  bool
}

type stamp struct {
	b   Batch
	sum uint64
}

// op names the wrapped operator in a violation.
func (w *checkedIter) op() string { return fmt.Sprintf("%T", w.it) }

func (w *checkedIter) verifyEnd() {
	if !w.closed {
		violate("%s was never closed", w.op())
	}
	w.verifyAll("checked when the execution ended")
}

// verifyAll checks the fingerprint of every batch the iterator emitted.
func (w *checkedIter) verifyAll(when string) {
	for i, s := range w.emitted {
		if fingerprint(s.b) != s.sum {
			violate("batch %d of %s changed after handoff (%s)", i, w.op(), when)
		}
	}
}

func (w *checkedIter) Cols() []string { return w.it.Cols() }

func (w *checkedIter) Next(ctx context.Context) (Batch, error) {
	if w.closed {
		violate("Next called on %s after Close", w.op())
	}
	w.verifyLast("its consumer wrote into it")
	b, err := w.it.Next(ctx)
	w.verifyLast("its producer rewrote it in the Next that followed")
	if len(b) > 0 {
		if w.emitted == nil {
			w.emitted = w.first[:0]
		}
		w.emitted = append(w.emitted, stamp{b, fingerprint(b)})
	}
	return b, err
}

func (w *checkedIter) Close() error {
	if !w.closed {
		w.closed = true
		w.verifyAll("checked at Close")
	}
	return w.it.Close()
}

// verifyLast checks the fingerprint of the batch emitted last.
func (w *checkedIter) verifyLast(cause string) {
	if i := len(w.emitted) - 1; i >= 0 && fingerprint(w.emitted[i].b) != w.emitted[i].sum {
		violate("batch %d of %s changed after handoff: %s", i, w.op(), cause)
	}
}

// fingerprint hashes a batch's row headers (each row's length and
// capacity) and the cells themselves.
func fingerprint(b Batch) uint64 {
	h := uint64(len(b))
	mix := func(x uint64) { h = bits.RotateLeft64((h^x)*0xff51afd7ed558ccd, 29) }
	for _, row := range b {
		mix(uint64(len(row))<<32 | uint64(cap(row)))
		mix(value.HashRow(row))
	}
	return h
}
