package engine

import (
	"context"
	"reflect"

	"uniqopt/internal/value"
)

// Scratch is the memory one execution's pipeline allocates from: the
// cells of the rows its joins and projections build, the row headers of
// its batches and of the drained result, and its hash tables' entries
// and slots. None of it outlives the execution, so one Scratch serves
// execution after execution: Reset hands everything back at once and
// the next execution carves the same chunks again, where a fresh
// allocation per batch would have left the collector a pipeline's worth
// of garbage per query.
//
// Every operator takes from the Scratch attached to its context
// (WithScratch), bound at its first Next. A Scratch is single-goroutine
// state, like the pipeline it serves. The rows it backs stay valid, and
// immutable, until Reset — which only the caller that has copied the
// answer out may call.
type Scratch struct {
	values  bump[value.Value]
	headers bump[value.Row]
	entries bump[rtEntry]
	slots   bump[rtSlot]
}

// NewScratch returns an empty scratch; nothing is allocated until an
// operator takes from it.
func NewScratch() *Scratch { return &Scratch{} }

// scratchRetain caps, in bytes, the chunk each of a Scratch's four
// allocators keeps across Reset (DESIGN §10 item 9). A kept chunk is
// live heap, which the collector's heap goal carries about twice in
// resident memory, and every scratch in use at once keeps its own. The
// largest embedded_analytic executions carve about 0.8 MiB of cells and
// as much of row headers; at 512 KiB only results of more than about
// 7,000 three-column rows spill past the cap, into chunks dropped at
// Reset, and a cap of 1 MiB saved them too little allocation to show.
const scratchRetain = 512 << 10

// scratchFirst is the element count of an allocator's first chunk: a
// point query's scratch stays a few KiB, and a chunk only grows to what
// executions have needed.
const scratchFirst = 16

// Reset hands back everything the execution took, for the next one. It
// clears only the part of each chunk that was handed out. An allocator
// whose chunk overflowed starts the next execution with one chunk the
// size of all it handed out, up to scratchRetain bytes. Rows the
// Scratch backs must not be read after Reset: under the poison build
// tag they read as a sentinel.
func (s *Scratch) Reset() {
	if Poisoned {
		s.poison()
		return
	}
	s.values.reset()
	s.headers.reset()
	s.entries.reset()
	s.slots.reset()
}

// poison is Reset under the poison build tag: nothing is ever carved
// twice, and everything handed out reads as a sentinel afterwards — a
// cell as a string no query produces, a row header as a one-cell row of
// it — so a row read after Reset shows up in any golden instead of
// reading whatever the next execution wrote there.
func (s *Scratch) poison() {
	sentinel := value.String_("\u2620 read after Scratch.Reset")
	row := value.Row{sentinel}
	s.values.abandon(sentinel)
	s.headers.abandon(row)
	s.entries.abandon(rtEntry{next: rtNone, row: row})
	s.slots.abandon(rtSlot{head: -1, tail: -1})
}

// bump is a chunked bump allocator. It carves slices off the front of
// its home chunk, the one it keeps across resets; when a request does
// not fit, it spills into overflow chunks, each twice the last up to a
// quarter of the cap (or as large as the request), which Reset drops.
// Every slice it returns is zeroed and capacity-clipped, so an append
// to one reallocates instead of reaching its neighbour.
type bump[T any] struct {
	home    []T  // the chunk each execution carves first
	chunk   []T  // the chunk being carved: home, or the latest overflow
	off     int  // elements of chunk handed out
	spilled bool // chunk is an overflow chunk
	over    int  // elements handed out by the chunks before it
	size    int  // the length of the next home, as Reset sized it
	// spent holds the chunks before chunk, each cut to what it handed
	// out, only under the poison build tag.
	spent [][]T
}

// take returns n zeroed elements.
func (b *bump[T]) take(n int) []T {
	if b.off+n > len(b.chunk) {
		b.refill(n)
	}
	s := b.chunk[b.off : b.off+n : b.off+n]
	b.off += n
	return s
}

// refill starts a fresh chunk with room for at least n elements.
func (b *bump[T]) refill(n int) {
	if Poisoned && b.chunk != nil {
		b.spent = append(b.spent, b.chunk[:b.off])
	}
	if b.home == nil {
		b.home = make([]T, max(n, b.size, scratchFirst))
		b.chunk = b.home
	} else {
		b.chunk = make([]T, max(n, min(2*len(b.chunk), b.keep()/4)))
		b.spilled, b.over = true, b.over+b.off
	}
	b.off = 0
}

// keep is scratchRetain in elements.
func (b *bump[T]) keep() int { return scratchRetain / int(reflect.TypeFor[T]().Size()) }

func (b *bump[T]) reset() {
	used := b.off
	if b.spilled {
		used += b.over
	}
	want := min(used, b.keep())
	switch {
	case len(b.home) < want || len(b.home) > b.keep():
		// Too small for what the execution took, or one request made it
		// larger than the cap: the next execution starts a home of want.
		b.home, b.size = nil, want
	case b.spilled:
		clear(b.home)
	default:
		clear(b.home[:b.off])
	}
	b.chunk, b.off, b.spilled, b.over = b.home, 0, false, 0
}

// abandon fills every element handed out since the last reset with
// sentinel and forgets every chunk, so that nothing is carved twice.
func (b *bump[T]) abandon(sentinel T) {
	fill := func(c []T) {
		for i := range c {
			c[i] = sentinel
		}
	}
	for _, c := range b.spent {
		fill(c)
	}
	fill(b.chunk[:b.off])
	*b = bump[T]{size: b.size}
}

// cells returns n zeroed cells: a row's storage, or a slab of rows'.
func (s *Scratch) cells(n int) value.Row { return s.values.take(n) }

// batch returns an empty batch with room for n rows.
func (s *Scratch) batch(n int) Batch { return s.headers.take(n)[:0] }

// push appends r to b, moving b to a slice of the scratch with twice
// the room when it is full.
func (s *Scratch) push(b Batch, r value.Row) Batch {
	if len(b) == cap(b) {
		b = s.grow(b, max(len(b), 8))
	}
	return append(b, r)
}

// grow returns rows with room for n more, moved to a slice of the
// scratch with exactly that room if it has less: eval.Filter.Select's
// allocator.
func (s *Scratch) grow(rows []value.Row, n int) []value.Row {
	if cap(rows)-len(rows) >= n {
		return rows
	}
	nb := s.headers.take(len(rows) + n)
	return nb[:copy(nb, rows)]
}

type scratchKey struct{}

// WithScratch attaches sc to ctx: every operator executing under the
// returned context allocates from sc.
func WithScratch(ctx context.Context, sc *Scratch) context.Context {
	return context.WithValue(ctx, scratchKey{}, sc)
}

// ScratchFrom extracts the scratch attached by WithScratch, or nil.
func ScratchFrom(ctx context.Context) *Scratch {
	sc, _ := ctx.Value(scratchKey{}).(*Scratch)
	return sc
}
