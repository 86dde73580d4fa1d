package engine

import (
	"context"
	"errors"
	"fmt"

	"uniqopt/internal/eval"
	"uniqopt/internal/fault"
	"uniqopt/internal/storage"
	"uniqopt/internal/tvl"
	"uniqopt/internal/value"
)

// The physical operators: every query the planner runs is a pipeline of
// these iterators, drained at the root. Batches are pulled through the
// Iterator interface so only blocking state (hash tables, sort buffers)
// is ever resident. Pipelined operators (scan, filter, project,
// hash-join probe, index join, hash distinct) emit as they consume; blocking
// operators (hash-join build, sort distinct, the product's collected
// inner, the sort-merge set operations) charge their state as held and
// release it at Close. Every constructor carves its iterator from the
// execution's Scratch, handed to it explicitly. What an operator derives
// from the plan alone — column ordinals (ColIndexes), a join's output
// columns (Join.Resolve, IndexProbe.Resolve), whether a projection is the
// identity (Projection.Resolve) — is resolved and checked once per
// statement shape, not per execution, so a malformed plan fails at
// compile instead of panicking mid-stream, and an execution's
// constructors only copy what they are handed.

// EmitCol names where one output column of a join comes from: column
// Ord of its left input (the hash join's probe, the index join's outer,
// the product's left) or, with Right set, of its right input (the build
// side, the probed table, the product's right).
type EmitCol struct {
	Right bool
	Ord   int
}

// Emit is a join's output layout, one EmitCol per output column. It is
// the only way a join writes a row: the planner lists what is read above
// the join — nothing else is copied, a column may repeat — and each row
// it carves from the scratch is as wide as the list. The full-width row
// of earlier versions is IdentityEmit.
type Emit []EmitCol

// IdentityEmit is the layout of every left column then every right one.
func IdentityEmit(left, right int) Emit {
	e := make(Emit, 0, left+right)
	for c := 0; c < left; c++ {
		e = append(e, EmitCol{Ord: c})
	}
	for c := 0; c < right; c++ {
		e = append(e, EmitCol{Right: true, Ord: c})
	}
	return e
}

// cols names e's output after the inputs' columns, or reports the first
// ordinal that is not a column of its input.
func (e Emit) cols(left, right []string) ([]string, error) {
	out := make([]string, len(e))
	for i, c := range e {
		src := left
		if c.Right {
			src = right
		}
		if c.Ord < 0 || c.Ord >= len(src) {
			return nil, fmt.Errorf("engine: relation has no column #%d (cols: %v)", c.Ord, src)
		}
		out[i] = src[c.Ord]
	}
	return out, nil
}

// fill writes the joined row of l and r into dst, which is len(e) wide.
func (e Emit) fill(dst, l, r value.Row) {
	for i, c := range e {
		if c.Right {
			dst[i] = r[c.Ord]
		} else {
			dst[i] = l[c.Ord]
		}
	}
}

// Join is a hash join's or a product's plan: its output layout and, for
// a hash join, the left (probe) columns at Pi equal to the right (build)
// columns at Bi — a product has no key. A planner fills it and calls
// Resolve once per statement shape; every execution's iterator reads it.
type Join struct {
	Emit   Emit
	Pi, Bi []int
	cols   []string // the output's names, set by Resolve
}

// Resolve checks j against the columns of its left and right inputs and
// names its output.
func (j *Join) Resolve(left, right []string) error {
	if len(j.Pi) != len(j.Bi) {
		return fmt.Errorf("engine: hash join on %d probe and %d build key columns", len(j.Pi), len(j.Bi))
	}
	if err := CheckOrdinals(left, j.Pi); err != nil {
		return err
	}
	if err := CheckOrdinals(right, j.Bi); err != nil {
		return err
	}
	cols, err := j.Emit.cols(left, right)
	j.cols = cols
	return err
}

// Cols names the join's output, once resolved.
func (j *Join) Cols() []string { return j.cols }

// indexScanIter streams the table rows at the given ordinals (the
// result of an index lookup or range scan, performed by the caller).
type indexScanIter struct {
	tbl  *storage.Table
	cols []string
	ords []int
	st   *Stats
	sg   streamGuard
	pos  int
}

// NewIndexScanIter returns a streaming scan over tbl's rows at ords,
// columns named cols, carved from sc. The caller performs the index
// probe, into sc (Scratch.Ints); the seek is counted here so the counter
// stays inside the engine.
func NewIndexScanIter(sc *Scratch, st *Stats, tbl *storage.Table, cols []string, ords []int) Iterator {
	st.IndexSeeks++
	return carve(&sc.frames.indexScans, indexScanIter{tbl: tbl, cols: cols, ords: ords, st: st, sg: sc.guard(st)})
}

func (it *indexScanIter) Cols() []string { return it.cols }

func (it *indexScanIter) Next(ctx context.Context) (Batch, error) {
	if err := it.sg.begin(ctx); err != nil {
		return nil, err
	}
	if it.pos >= len(it.ords) {
		return nil, nil
	}
	end := it.pos + BatchSize()
	if end > len(it.ords) {
		end = len(it.ords)
	}
	b := it.sg.sc.batch(end - it.pos)
	for _, ri := range it.ords[it.pos:end] {
		b = append(b, it.tbl.Row(ri))
	}
	it.st.RowsScanned += int64(len(b))
	it.pos = end
	return it.sg.emit(b)
}

func (it *indexScanIter) Close() error {
	it.sg.close()
	return nil
}

// filterIter streams the rows of its child that satisfy its compiled
// predicate under false-interpreted WHERE semantics. A predicate that is
// a conjunction of column-vs-constant kernels is decided a batch at a
// time (eval.Filter.Select), one conjunct over the whole batch and then
// the next over what it kept; any other predicate, and any batch with a
// cell a kernel does not own, runs the row loop.
type filterIter struct {
	child   Iterator
	keep    eval.Filter
	cols    []string
	st      *Stats
	sg      streamGuard
	last    int // the length of the batch last emitted
	started bool
	closed  bool
}

// NewFilterIter streams child through keep, a clause prepared against
// the child's columns and armed for this execution, carved from sc. A
// zero keep filters nothing.
func NewFilterIter(sc *Scratch, st *Stats, child Iterator, keep eval.Filter) Iterator {
	if keep.Empty() {
		return child
	}
	return carve(&sc.frames.filters, filterIter{child: child, keep: keep, cols: child.Cols(), st: st, sg: sc.guard(st)})
}

func (it *filterIter) Cols() []string { return it.cols }

func (it *filterIter) emit(out Batch) (Batch, error) {
	it.last = len(out)
	return it.sg.emit(out)
}

func (it *filterIter) Next(ctx context.Context) (Batch, error) {
	if err := it.sg.begin(ctx); err != nil {
		return nil, err
	}
	if !it.started {
		it.started = true
		if err := fault.Point(FaultFilter); err != nil {
			return nil, err
		}
	}
	bs := BatchSize()
	var out Batch
	for {
		b, err := it.child.Next(ctx)
		if err != nil {
			return nil, err
		}
		if b == nil {
			if len(out) > 0 {
				return it.emit(out)
			}
			return nil, nil
		}
		if out == nil && (it.last > 0 || len(b) >= bs) {
			// The output is sized by the batch emitted last — before the
			// first emission, by BatchSize() when a full input batch says
			// the stream is long — not by the input: a selective predicate
			// would zero and discard a slice header per input row, and
			// growing from nothing pays a copy per doubling. A batch
			// closes at the input batch that takes it to BatchSize() or
			// past it, so it holds a little more or less than the one
			// before: an eighth to spare saves copying about every other
			// batch once more.
			n := it.last
			if n == 0 {
				n = bs
			}
			out = it.sg.sc.batch(n + n/8)
		}
		// The batch path polls no cancellation of its own: the child's
		// Next has just polled it, once for the batch. It grows out by
		// exactly the rows it keeps, from the scratch; the row loop
		// pushes a row at a time, so it starts a short stream at a
		// quarter of its input.
		if kept, ok := it.keep.Select(out, b, it.sg.sc.grow); ok {
			out = kept
		} else {
			if out == nil {
				out = it.sg.sc.batch(len(b) / 4)
			}
			if out, err = it.qualifying(out, b); err != nil {
				return nil, err
			}
		}
		if len(out) >= bs {
			return it.emit(out)
		}
	}
}

// qualifying is the row loop: it appends to out the rows of b the
// clause accepts under the false-interpreted WHERE semantics (Unknown
// rejects), polling cancellation as it goes.
func (it *filterIter) qualifying(out, b Batch) (Batch, error) {
	for _, row := range b {
		if err := it.sg.step(); err != nil {
			return nil, err
		}
		t, err := it.keep.Pred(row)
		if err != nil {
			return nil, err
		}
		if tvl.FalseInterpreted(t) {
			out = it.sg.sc.push(out, row)
		}
	}
	return out, nil
}

func (it *filterIter) Close() error {
	if it.closed {
		return nil
	}
	it.closed = true
	it.sg.close()
	return it.child.Close()
}

// projectIter streams its child projected onto the columns at idx. When
// idx is the identity — the child already emits the projection's layout,
// as the top join of a block does — the child's batches pass through
// uncopied: a batch is immutable after handoff, so handing the same one
// on shares nothing that can change; the child's in-flight charge
// covers it, and the projection only counts the emit.
type projectIter struct {
	child  Iterator
	p      *Projection
	st     *Stats
	sg     streamGuard
	closed bool
}

// Projection is a projection's plan: its input's columns at Idx, named
// Cols. A planner fills it and calls Resolve once per statement shape;
// every execution's iterator reads it.
type Projection struct {
	Cols     []string
	Idx      []int
	identity bool // Idx selects every input column in place, set by Resolve
}

// Resolve checks p against its input's columns and notes whether it is
// the identity.
func (p *Projection) Resolve(in []string) error {
	if err := CheckOrdinals(in, p.Idx); err != nil {
		return err
	}
	p.identity = len(p.Idx) == len(in)
	for i, c := range p.Idx {
		p.identity = p.identity && c == i
	}
	return nil
}

// CheckOrdinals reports the first ordinal of idx that is not a column
// of cols.
func CheckOrdinals(cols []string, idx []int) error {
	for _, c := range idx {
		if c < 0 || c >= len(cols) {
			return fmt.Errorf("engine: relation has no column #%d (cols: %v)", c, cols)
		}
	}
	return nil
}

// project copies the columns at idx of every row of b into fresh rows
// carved from one slab of the scratch: the batch's size is known, so it
// takes exactly the rows it emits.
func project(sc *Scratch, b Batch, idx []int) Batch {
	w := len(idx)
	slab := sc.Cells(len(b) * w)
	out := sc.batch(len(b))[:len(b)]
	for r, row := range b {
		nr := slab[r*w : (r+1)*w : (r+1)*w]
		for i, c := range idx {
			nr[i] = row[c]
		}
		out[r] = nr
	}
	return out
}

// NewProjectIter streams child projected by p, resolved against the
// child's columns — passed through when p is the identity, else copied —
// carved from sc.
func NewProjectIter(sc *Scratch, st *Stats, child Iterator, p *Projection) Iterator {
	return carve(&sc.frames.projects, projectIter{child: child, p: p, st: st, sg: sc.guard(st)})
}

func (it *projectIter) Cols() []string { return it.p.Cols }

func (it *projectIter) Next(ctx context.Context) (Batch, error) {
	if err := it.sg.begin(ctx); err != nil {
		return nil, err
	}
	b, err := it.child.Next(ctx)
	if err != nil || b == nil {
		return nil, err
	}
	if it.p.identity {
		return it.sg.emitHeld(b)
	}
	return it.sg.emit(project(it.sg.sc, b, it.p.Idx))
}

func (it *projectIter) Close() error {
	if it.closed {
		return nil
	}
	it.closed = true
	it.sg.close()
	return it.child.Close()
}

// distinctHashIter streams duplicate elimination (≐ semantics): rows
// are emitted in first-occurrence order as they arrive, deduplicated
// against one hash table held for the stream's lifetime. It is the
// planner's one DISTINCT operator; DistinctSort is the paper's baseline.
type distinctHashIter struct {
	child   Iterator
	cols    []string
	st      *Stats
	sg      streamGuard
	table   rowTable
	started bool
	closed  bool
}

// NewDistinctHashIter streams child with duplicates removed, carved
// from sc.
func NewDistinctHashIter(sc *Scratch, st *Stats, child Iterator) Iterator {
	return carve(&sc.frames.hashDistincts, distinctHashIter{child: child, cols: child.Cols(), st: st, sg: sc.guard(st)})
}

func (it *distinctHashIter) Cols() []string { return it.cols }

func (it *distinctHashIter) Next(ctx context.Context) (Batch, error) {
	if err := it.sg.begin(ctx); err != nil {
		return nil, err
	}
	if !it.started {
		it.started = true
		if err := fault.Point(FaultDistinct); err != nil {
			return nil, err
		}
	}
	for {
		b, err := it.child.Next(ctx)
		if err != nil {
			return nil, err
		}
		if b == nil {
			return nil, nil
		}
		out, err := it.dedup(b)
		if err != nil {
			return nil, err
		}
		if len(out) > 0 {
			// Emitted rows are retained by the hash table and already
			// charged as held state: no in-flight charge.
			return it.sg.emitHeld(out)
		}
	}
}

// dedup returns the rows of b not ≐-equal to a row seen before, and
// adds them to the table.
func (it *distinctHashIter) dedup(b Batch) (Batch, error) {
	t, sc := &it.table, it.sg.sc
	if t.len() == 0 {
		// Room for the first batch in one step, not by quadrupling from
		// nothing: at most every row of it is new.
		t.reserve(sc, len(b))
	}
	out := sc.batch(len(b))
	for _, row := range b {
		if err := it.sg.step(); err != nil {
			return nil, err
		}
		h := hashRow(row)
		it.st.HashProbes++
		dup := false
		for e := t.find(h); e != rtNone; e = t.entries[e].next {
			it.st.Comparisons++
			if value.NullEqRows(t.entries[e].row, row) {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		t.insert(sc, h, row)
		it.st.HashInserts++
		if err := it.sg.keep(row); err != nil {
			return nil, err
		}
		out = append(out, row)
	}
	return out, it.sg.flushHeld()
}

func (it *distinctHashIter) Close() error {
	if it.closed {
		return nil
	}
	it.closed = true
	it.sg.close()
	it.table = rowTable{}
	return it.child.Close()
}

// distinctSortIter is sort-based duplicate elimination, the expensive
// operation the paper's optimization avoids: it buffers its whole input
// (charged as held state), sorts it and collapses each run of ≐-equal
// rows onto its first, then emits the result, in sorted order, in
// batches. It runs only as the paper's baseline for experiment E1
// (plan.Options.SortDistinct).
type distinctSortIter struct {
	child  Iterator
	cols   []string
	st     *Stats
	sg     streamGuard
	buf    []value.Row
	pos    int
	built  bool
	closed bool
}

// NewDistinctSortIter streams child with duplicates removed by the
// sort-and-collapse strategy (blocking), carved from sc.
func NewDistinctSortIter(sc *Scratch, st *Stats, child Iterator) Iterator {
	return carve(&sc.frames.sortDistincts, distinctSortIter{child: child, cols: child.Cols(), st: st, sg: sc.guard(st)})
}

func (it *distinctSortIter) Cols() []string { return it.cols }

func (it *distinctSortIter) Next(ctx context.Context) (Batch, error) {
	if err := it.sg.begin(ctx); err != nil {
		return nil, err
	}
	if !it.built {
		if err := fault.Point(FaultDistinct); err != nil {
			return nil, err
		}
		rows, err := it.sg.collect(ctx, it.child)
		if err != nil {
			return nil, err
		}
		sortCounted(it.sg.sc, it.st, rows)
		// Collapse each run of ≐-equal rows onto its first row, in
		// place: the buffer is this iterator's own.
		kept := rows[:0]
		for _, row := range rows {
			if err := it.sg.step(); err != nil {
				return nil, err
			}
			if len(kept) > 0 {
				it.st.Comparisons++
				if value.NullEqRows(kept[len(kept)-1], row) {
					continue
				}
			}
			kept = append(kept, row)
		}
		it.buf = kept
		it.built = true
	}
	var b Batch
	if b, it.pos = window(it.buf, it.pos); b == nil {
		return nil, nil
	}
	return it.sg.emitHeld(b)
}

func (it *distinctSortIter) Close() error {
	if it.closed {
		return nil
	}
	it.closed = true
	it.sg.close()
	it.buf = nil
	return it.child.Close()
}

// setOpIter is the blocking sort-merge form of INTERSECT / EXCEPT [ALL]
// — the way the paper says typical optimizers run them (§5.3), and what
// the Theorem 3 / Corollary 2 rewrites exist to avoid: it collects both
// operands, sorts the buffers it collected them into, merges them and
// emits the result in batches. The operands and the result are held
// state, each row charged once.
type setOpIter struct {
	l, r   Iterator
	merge  mergeFunc
	all    bool
	st     *Stats
	sg     streamGuard
	out    []value.Row
	pos    int
	built  bool
	closed bool
}

// NewSetOpIter streams l INTERSECT [ALL] r, or with except set
// l EXCEPT [ALL] r, under ≐ row equivalence, carved from sc. Output
// columns are l's.
func NewSetOpIter(sc *Scratch, st *Stats, l, r Iterator, except, all bool) Iterator {
	merge := intersectSorted
	if except {
		merge = exceptSorted
	}
	return carve(&sc.frames.setOps, setOpIter{l: l, r: r, merge: merge, all: all, st: st, sg: sc.guard(st)})
}

func (it *setOpIter) Cols() []string { return it.l.Cols() }

func (it *setOpIter) Next(ctx context.Context) (Batch, error) {
	if err := it.sg.begin(ctx); err != nil {
		return nil, err
	}
	if !it.built {
		lrows, err := it.sg.collect(ctx, it.l)
		if err != nil {
			return nil, err
		}
		rrows, err := it.sg.collect(ctx, it.r)
		if err != nil {
			return nil, err
		}
		if err := fault.Point(FaultSort); err != nil {
			return nil, err
		}
		sortCounted(it.sg.sc, it.st, lrows)
		sortCounted(it.sg.sc, it.st, rrows)
		if it.out, err = it.merge(it.st, &it.sg, lrows, rrows, it.all); err != nil {
			return nil, err
		}
		if err := it.sg.flushHeld(); err != nil {
			return nil, err
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		it.built = true
	}
	var b Batch
	if b, it.pos = window(it.out, it.pos); b == nil {
		return nil, nil
	}
	return it.sg.emitHeld(b)
}

func (it *setOpIter) Close() error {
	if it.closed {
		return nil
	}
	it.closed = true
	it.sg.close()
	it.out = nil
	return errors.Join(it.l.Close(), it.r.Close())
}

// hashJoinIter streams an equi-join: the build side (right input) is
// drained into a hash table on the first Next — the join's only
// blocking state — and the probe side (left input) streams through it
// batch by batch. Output order is probe order with build-chain order
// inside a key.
type hashJoinIter struct {
	probe, build Iterator
	j            *Join
	st           *Stats
	sg           streamGuard
	table        rowTable
	keyBuf       value.Row
	built        bool
	pb           Batch
	pidx         int
	last         int // the length of the batch last emitted
	closed       bool
}

// NewHashJoinIter streams probe ⋈ build by plan, resolved against the
// probe's columns (left) and the build's (right), carved from sc.
// WHERE-clause equality semantics: rows with NULL join keys never match.
func NewHashJoinIter(sc *Scratch, st *Stats, probe, build Iterator, plan *Join) Iterator {
	return carve(&sc.frames.hashJoins, hashJoinIter{
		probe: probe, build: build, j: plan, st: st, sg: sc.guard(st),
		keyBuf: sc.Cells(len(plan.Bi)),
	})
}

func (j *hashJoinIter) Cols() []string { return j.j.cols }

func hasNullAt(row value.Row, idx []int) bool {
	for _, i := range idx {
		if row[i].IsNull() {
			return true
		}
	}
	return false
}

func equalAt(a value.Row, ai []int, b value.Row, bi []int, st *Stats) bool {
	for k := range ai {
		st.Comparisons++
		if value.Compare(a[ai[k]], b[bi[k]]) != 0 {
			return false
		}
	}
	return true
}

func (j *hashJoinIter) buildTable(ctx context.Context) error {
	for {
		b, err := j.build.Next(ctx)
		if err != nil {
			return err
		}
		if b == nil {
			break
		}
		// The table is sized by the batches that arrive, not by a bound
		// on them — a selective filter keeps a fraction of what it might
		// — and most build sides arrive in one.
		j.table.reserve(j.sg.sc, len(b))
		for _, row := range b {
			if err := j.sg.step(); err != nil {
				return err
			}
			if hasNullAt(row, j.j.Bi) {
				continue
			}
			for i, c := range j.j.Bi {
				j.keyBuf[i] = row[c]
			}
			j.table.insert(j.sg.sc, hashRow(j.keyBuf), row)
			j.st.HashInserts++
			if err := j.sg.keep(row); err != nil {
				return err
			}
		}
	}
	if err := j.sg.flushHeld(); err != nil {
		return err
	}
	// The build child's transient state can go now; Close is
	// idempotent, so the join's own Close may call it again.
	return j.build.Close()
}

func (j *hashJoinIter) Next(ctx context.Context) (Batch, error) {
	if err := j.sg.begin(ctx); err != nil {
		return nil, err
	}
	if !j.built {
		if err := fault.Point(FaultHashBuild); err != nil {
			return nil, err
		}
		if err := j.buildTable(ctx); err != nil {
			return nil, err
		}
		j.built = true
		if err := fault.Point(FaultHashProbe); err != nil {
			return nil, err
		}
	}
	bs, sc := BatchSize(), j.sg.sc
	var out Batch
	for {
		if j.pb == nil {
			b, err := j.probe.Next(ctx)
			if err != nil {
				return nil, err
			}
			if b == nil {
				if len(out) > 0 {
					return j.emitOut(out)
				}
				return nil, nil
			}
			j.pb, j.pidx = b, 0
		}
		for j.pidx < len(j.pb) {
			prow := j.pb[j.pidx]
			j.pidx++
			if err := j.sg.step(); err != nil {
				return nil, err
			}
			if hasNullAt(prow, j.j.Pi) {
				continue
			}
			for i, c := range j.j.Pi {
				j.keyBuf[i] = prow[c]
			}
			j.st.HashProbes++
			h := hashRow(j.keyBuf)
			for e := j.table.find(h); e != rtNone; e = j.table.entries[e].next {
				brow := j.table.entries[e].row
				j.st.JoinPairs++
				if !equalAt(prow, j.j.Pi, brow, j.j.Bi, j.st) {
					continue
				}
				nr := sc.Cells(len(j.j.Emit))
				j.j.Emit.fill(nr, prow, brow)
				if out == nil {
					// Sized by the batch emitted last, as the filter sizes
					// its output: one slice a batch once the stream is
					// steady, not one per doubling.
					out = sc.batch(j.last)
				}
				out = sc.push(out, nr)
			}
			if len(out) >= bs {
				return j.emitOut(out)
			}
		}
		j.pb = nil
	}
}

func (j *hashJoinIter) emitOut(out Batch) (Batch, error) {
	j.last = len(out)
	return j.sg.emit(out)
}

func (j *hashJoinIter) Close() error {
	if j.closed {
		return nil
	}
	j.closed = true
	j.sg.close()
	j.table = rowTable{}
	return errors.Join(j.probe.Close(), j.build.Close())
}

// IndexProbe is the inner side of an index join and its output: a base
// table reached through one of its ordered indexes. Key binds a leading
// prefix of the index's columns, Key[i] the i-th: to the outer row's
// column at that ordinal or, where it is negative, to a constant of the
// execution, which the key row handed to NewIndexJoinIter holds at i.
// Cols names the table's columns (under its correlation name). The semi
// form emits each outer row that has a qualifying entry once, as it
// came; the join form lays its output out by Emit, the outer row its
// left input and the table its right. A planner fills it and calls
// Resolve once per statement shape; every execution's iterator reads it.
type IndexProbe struct {
	Tbl  *storage.Table
	Ix   *storage.OrderedIndex
	Cols []string
	Key  []int
	Semi bool
	Emit Emit
	out  []string // the output's names, set by Resolve
}

// Resolve checks p against the outer input's columns — the key binds a
// leading prefix of the index from columns the outer input has, the
// join form's layout reads columns its inputs have — and names its
// output.
func (p *IndexProbe) Resolve(outer []string) error {
	if len(p.Key) == 0 || len(p.Key) > len(p.Ix.Columns) {
		return fmt.Errorf("engine: index join binds %d of index %s's %d columns",
			len(p.Key), p.Ix.Name, len(p.Ix.Columns))
	}
	for _, k := range p.Key {
		if k >= len(outer) {
			return fmt.Errorf("engine: relation has no column #%d (cols: %v)", k, outer)
		}
	}
	if p.Semi {
		p.out = outer
		return nil
	}
	var err error
	p.out, err = p.Emit.cols(outer, p.Cols)
	return err
}

// indexJoinIter streams outer ⋈ table by seeking the table's ordered
// index once per outer row instead of reading the table: nothing is
// built and nothing is held, so the rows it touches are proportional to
// its outer input and its matches. The join form emits one scratch row
// per qualifying entry, laid out by its Emit, in outer order with index
// order inside a key. The semi form stops at the first
// qualifying entry and passes the outer row itself through, untouched
// and at most once — the existence probe of the paper's Section 6.
type indexJoinIter struct {
	outer   Iterator
	in      *IndexProbe
	keep    eval.Filter // what a fetched row must still satisfy
	st      *Stats
	sg      streamGuard
	keyBuf  value.Row      // the probe key: the execution's constants and, per outer row, its columns
	ob      Batch          // the outer batch being probed
	oidx    int            // the next row of ob
	orow    value.Row      // the outer row whose entries are being fetched
	pos     storage.Cursor // the next entry of the index to fetch for it
	probing bool           // orow's entries are not exhausted
	started bool
	closed  bool
}

// NewIndexJoinIter streams outer joined to in.Tbl on in.Key by in,
// resolved against the outer input's columns, the table's rows fetched
// through in.Ix; carved from sc. key is a row of len(in.Key) cells,
// carved from sc, holding the execution's constant at every negative
// Key; the iterator fills in the rest for each outer row. keep, armed
// over in.Cols, is what a fetched row must still satisfy (the zero
// Filter: nothing more). WHERE-clause equality semantics: a key with a
// NULL component matches nothing, although the index files NULLs
// together.
func NewIndexJoinIter(sc *Scratch, st *Stats, outer Iterator, in *IndexProbe, key value.Row, keep eval.Filter) Iterator {
	return carve(&sc.frames.indexJoins, indexJoinIter{
		outer: outer, in: in, keep: keep, st: st, sg: sc.guard(st), keyBuf: key,
	})
}

func (j *indexJoinIter) Cols() []string { return j.in.out }

// seek positions the iterator on the entries of the next outer row, and
// reports false once the outer input is exhausted.
func (j *indexJoinIter) seek(ctx context.Context) (bool, error) {
	for {
		if j.oidx >= len(j.ob) {
			b, err := j.outer.Next(ctx)
			if err != nil || b == nil {
				return false, err
			}
			j.ob, j.oidx = b, 0
			continue
		}
		j.orow = j.ob[j.oidx]
		j.oidx++
		if err := j.sg.step(); err != nil {
			return false, err
		}
		null := false
		for i, k := range j.in.Key {
			if k >= 0 {
				j.keyBuf[i] = j.orow[k]
			}
			null = null || j.keyBuf[i].IsNull()
		}
		if null {
			continue
		}
		// The position the last probe stopped at is the hint: outer rows
		// in key order cost the distance between their entries.
		j.st.IndexSeeks++
		j.pos, j.probing = j.in.Ix.Seek(j.keyBuf, j.pos), true
		return true, nil
	}
}

func (j *indexJoinIter) Next(ctx context.Context) (Batch, error) {
	if err := j.sg.begin(ctx); err != nil {
		return nil, err
	}
	if !j.started {
		j.started = true
		if err := fault.Point(FaultIndexProbe); err != nil {
			return nil, err
		}
	}
	bs, sc := BatchSize(), j.sg.sc
	var out Batch
	for {
		for j.probing {
			ord, next, ok := j.in.Ix.At(j.pos, j.keyBuf)
			if !ok {
				j.probing = false
				break
			}
			j.pos = next
			irow := j.in.Tbl.Row(ord)
			if err := j.sg.step(); err != nil {
				return nil, err
			}
			j.st.RowsScanned++
			j.st.JoinPairs++
			if !j.keep.Empty() {
				t, err := j.keep.Pred(irow)
				if err != nil {
					return nil, err
				}
				if !tvl.FalseInterpreted(t) {
					continue
				}
			}
			if j.in.Semi {
				out = sc.push(out, j.orow)
				j.probing = false
			} else {
				nr := sc.Cells(len(j.in.Emit))
				j.in.Emit.fill(nr, j.orow, irow)
				out = sc.push(out, nr)
			}
			if len(out) >= bs {
				return j.sg.emit(out)
			}
		}
		more, err := j.seek(ctx)
		if err != nil {
			return nil, err
		}
		if !more {
			if len(out) > 0 {
				return j.sg.emit(out)
			}
			return nil, nil
		}
	}
}

func (j *indexJoinIter) Close() error {
	if j.closed {
		return nil
	}
	j.closed = true
	j.sg.close()
	return j.outer.Close()
}

// productIter streams the extended Cartesian product: the right input
// is collected once (held state), the left streams once, and every left
// row is paired with the collected rows in their arrival order.
type productIter struct {
	left, right Iterator
	inner       []value.Row // the right input, collected on the first Next
	j           *Join
	st          *Stats
	sg          streamGuard
	lb          Batch // the left batch being paired
	li, ri      int   // the next pair: lb[li] with inner[ri]
	built       bool
	closed      bool
}

// NewProductIter streams l × r, every pair laid out by plan (which has
// no key), resolved against l's columns and r's; carved from sc.
func NewProductIter(sc *Scratch, st *Stats, l, r Iterator, plan *Join) Iterator {
	return carve(&sc.frames.products, productIter{left: l, right: r, j: plan, st: st, sg: sc.guard(st)})
}

func (j *productIter) Cols() []string { return j.j.cols }

func (j *productIter) Next(ctx context.Context) (Batch, error) {
	if err := j.sg.begin(ctx); err != nil {
		return nil, err
	}
	if !j.built {
		var err error
		if j.inner, err = j.sg.collect(ctx, j.right); err != nil {
			return nil, err
		}
		j.built = true
	}
	bs, sc := BatchSize(), j.sg.sc
	var out Batch
	for {
		if j.li >= len(j.lb) {
			b, err := j.left.Next(ctx)
			if err != nil {
				return nil, err
			}
			if b == nil {
				if len(out) > 0 {
					return j.sg.emit(out)
				}
				return nil, nil
			}
			j.lb, j.li, j.ri = b, 0, 0
			continue
		}
		lrow := j.lb[j.li]
		for j.ri < len(j.inner) {
			rr := j.inner[j.ri]
			j.ri++
			if err := j.sg.step(); err != nil {
				return nil, err
			}
			j.st.JoinPairs++
			nr := sc.Cells(len(j.j.Emit))
			j.j.Emit.fill(nr, lrow, rr)
			out = sc.push(out, nr)
			if len(out) >= bs {
				return j.sg.emit(out)
			}
		}
		j.li, j.ri = j.li+1, 0
	}
}

func (j *productIter) Close() error {
	if j.closed {
		return nil
	}
	j.closed = true
	j.sg.close()
	j.inner = nil
	return errors.Join(j.left.Close(), j.right.Close())
}
