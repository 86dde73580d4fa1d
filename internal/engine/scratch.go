package engine

import (
	"reflect"

	"uniqopt/internal/eval"
	"uniqopt/internal/value"
)

// Scratch is one execution's frame: everything its pipeline allocates
// and nothing that outlives it. It holds the cells of the rows the
// joins and projections build, the row headers of the batches and of
// the drained result, the hash tables' entries and slots, an index
// probe's row ordinals, every iterator of the pipeline and the drained
// Relation — each kind from an allocator of its own — and the
// execution's Governor. None of it outlives the execution, so one
// Scratch serves execution after execution: Reset hands everything back
// at once and the next execution carves the same chunks again, where a
// fresh allocation per iterator and per batch would have left the
// collector a pipeline's worth of garbage per query.
//
// Every iterator constructor takes the Scratch it carves itself and its
// batches from; the context an iterator is driven under carries only
// cancellation. A Scratch is single-goroutine state, like the pipeline
// it serves. The rows it backs stay valid, and immutable, until Reset —
// which only the caller that has copied the answer out may call.
type Scratch struct {
	values  bump[value.Value]
	headers bump[value.Row]
	entries bump[rtEntry]
	slots   bump[rtSlot]
	ords    bump[int]
	conj    bump[eval.Conjunct]
	frames  frames
	// own is the execution's governor; gov is the one its pipeline
	// charges — own, the parent execution's for a subquery's scratch, or
	// nil for no budget (Budget, Sub).
	own Governor
	gov *Governor
	sub *Scratch // the scratch of this execution's subquery runs (Sub)
}

// frames are the pipeline's iterators and its drained result, one
// allocator per kind.
type frames struct {
	rows          bump[rowsIter]
	indexScans    bump[indexScanIter]
	filters       bump[filterIter]
	projects      bump[projectIter]
	hashDistincts bump[distinctHashIter]
	sortDistincts bump[distinctSortIter]
	setOps        bump[setOpIter]
	hashJoins     bump[hashJoinIter]
	indexJoins    bump[indexJoinIter]
	products      bump[productIter]
	relations     bump[Relation]
}

func (f *frames) reset() {
	f.rows.reset()
	f.indexScans.reset()
	f.filters.reset()
	f.projects.reset()
	f.hashDistincts.reset()
	f.sortDistincts.reset()
	f.setOps.reset()
	f.hashJoins.reset()
	f.indexJoins.reset()
	f.products.reset()
	f.relations.reset()
}

// abandon is reset under the poison build tag: an abandoned frame reads
// as its zero value, a closed iterator with nothing to emit.
func (f *frames) abandon() {
	f.rows.abandon(rowsIter{})
	f.indexScans.abandon(indexScanIter{})
	f.filters.abandon(filterIter{})
	f.projects.abandon(projectIter{})
	f.hashDistincts.abandon(distinctHashIter{})
	f.sortDistincts.abandon(distinctSortIter{})
	f.setOps.abandon(setOpIter{})
	f.hashJoins.abandon(hashJoinIter{})
	f.indexJoins.abandon(indexJoinIter{})
	f.products.abandon(productIter{})
	f.relations.abandon(Relation{})
}

// carve returns one element of b, set to v.
func carve[T any](b *bump[T], v T) *T {
	p := &b.take(1)[0]
	*p = v
	return p
}

// NewScratch returns an empty scratch; nothing is allocated until an
// operator takes from it.
func NewScratch() *Scratch { return &Scratch{} }

// Budget starts an execution's budget: the scratch's own governor,
// emptied and set to the limits (zero or negative: unlimited), is the
// one its pipeline charges, and Budget returns it. When both limits are
// unlimited the pipeline charges none and Budget returns nil — except
// under the poison build tag, where the governor keeps the books
// anyway, for the Checker. Call it before building the pipeline.
func (s *Scratch) Budget(maxRows, maxBytes int64) *Governor {
	s.own.reset(maxRows, maxBytes)
	s.gov = nil
	if maxRows > 0 || maxBytes > 0 || Poisoned {
		s.gov = &s.own
	}
	return s.gov
}

// Governor returns the governor the scratch's pipeline charges, or nil.
func (s *Scratch) Governor() *Governor { return s.gov }

// Sub returns the scratch a subquery's runs allocate from: one per
// scratch, kept with it across executions, charging this scratch's
// governor. Runs of the subqueries of one execution never overlap, so
// they share it; a subquery's own subqueries run on its Sub. A run
// resets it once its answer is copied out.
func (s *Scratch) Sub() *Scratch {
	if s.sub == nil {
		s.sub = &Scratch{}
	}
	s.sub.gov = s.gov
	return s.sub
}

// scratchRetain caps, in bytes, the chunk each of a Scratch's
// allocators keeps across Reset (DESIGN §10 item 9). A kept chunk is
// live heap, which the collector's heap goal carries about twice in
// resident memory, and every scratch in use at once keeps its own. The
// largest embedded_analytic executions carve about 0.8 MiB of cells and
// as much of row headers; at 512 KiB only results of more than about
// 7,000 three-column rows spill past the cap, into chunks dropped at
// Reset, and a cap of 1 MiB saved them too little allocation to show.
const scratchRetain = 512 << 10

// scratchFirst is the element count of an allocator's first chunk, and
// scratchFirstBytes the most it may take: a point query's scratch stays
// a few KiB, and a chunk only grows to what executions have needed.
const (
	scratchFirst      = 16
	scratchFirstBytes = 1 << 10
)

// Reset hands back everything the execution took, for the next one. It
// clears only the part of each chunk that was handed out, and an
// allocator that handed out nothing costs a comparison. An allocator
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
	s.ords.reset()
	s.conj.reset()
	s.frames.reset()
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
	s.ords.abandon(-1)
	s.conj.abandon(eval.Conjunct{}) // decides nothing: a read panics
	s.frames.abandon()
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
	elem    int  // the size of one element in bytes, set by the first refill
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
	if b.elem == 0 {
		b.elem = int(reflect.TypeFor[T]().Size())
	}
	if b.home == nil {
		b.home = make([]T, max(n, b.size, min(scratchFirst, max(1, scratchFirstBytes/b.elem))))
		b.chunk = b.home
	} else {
		b.chunk = make([]T, max(n, min(2*len(b.chunk), b.keep()/4)))
		b.spilled, b.over = true, b.over+b.off
	}
	b.off = 0
}

// keep is scratchRetain in elements. Only an allocator that has
// refilled calls it.
func (b *bump[T]) keep() int { return scratchRetain / b.elem }

func (b *bump[T]) reset() {
	if b.off == 0 && !b.spilled {
		return // nothing carved since the last reset
	}
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
	*b = bump[T]{size: b.size, elem: b.elem}
}

// Cells returns n zeroed cells: a row's storage, or a slab of rows'.
func (s *Scratch) Cells(n int) value.Row { return s.values.take(n) }

// GrowCells returns vals with room for n more cells, moved to cells of
// the scratch with exactly that room if it has less: the allocator of an
// execution's binding vector (lexer.Shape's grow).
func (s *Scratch) GrowCells(vals []value.Value, n int) []value.Value {
	if cap(vals)-len(vals) >= n {
		return vals
	}
	nv := s.values.take(len(vals) + n)
	return nv[:copy(nv, vals)]
}

// Ints returns n zeroed ints: the row ordinals of an index probe.
func (s *Scratch) Ints(n int) []int { return s.ords.take(n) }

// Conjuncts returns n zeroed conjuncts: an armed predicate's (eval.Arena).
func (s *Scratch) Conjuncts(n int) []eval.Conjunct { return s.conj.take(n) }

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
