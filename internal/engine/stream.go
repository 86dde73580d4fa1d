package engine

import (
	"context"

	"uniqopt/internal/eval"
	"uniqopt/internal/fault"
	"uniqopt/internal/sql/ast"
	"uniqopt/internal/storage"
	"uniqopt/internal/value"
)

// Streaming operator implementations. Each mirrors its materializing
// counterpart in operators.go — same matching semantics, same output
// order, same work counters — but pulls batches through the Iterator
// interface so only blocking state (hash tables, sort buffers) is ever
// resident. Pipelined operators (scan, filter, project, hash-join
// probe, streaming distinct) emit as they consume; blocking operators
// (hash-join build, sort distinct, the buffered product inner) charge
// their state as held and release it at Close.

// arenaFirstRows is the row count of a rowArena's first slab.
const arenaFirstRows = 4

// rowArena hands out fixed-width output rows carved from shared
// backing slabs, so an operator pays one allocation per slab instead
// of one per row. Slabs are sized by what the operator has emitted so
// far, not by what it might emit: the first holds arenaFirstRows rows
// and each later one twice the one before, up to BatchSize() — a join
// proven to emit one row allocates room for a few, and a large result
// still settles at one allocation per batch. Every returned row is a
// full-capacity subslice, never reused, so emitted rows satisfy the
// immutability contract.
type rowArena struct {
	buf   value.Row
	width int
	rows  int // rows in the current slab; 0 before the first
}

func (a *rowArena) next() value.Row {
	if len(a.buf) < a.width || a.width == 0 {
		a.rows = min(max(2*a.rows, arenaFirstRows), BatchSize())
		a.buf = make(value.Row, a.width*a.rows)
	}
	row := a.buf[:a.width:a.width]
	a.buf = a.buf[a.width:]
	return row
}

// tableIter streams a base table scan in batches.
type tableIter struct {
	tbl     *storage.Table
	cols    []string
	st      *Stats
	sg      streamGuard
	pos     int
	started bool
}

// NewTableIter returns a streaming scan of tbl, columns qualified by
// corr.
func NewTableIter(st *Stats, tbl *storage.Table, corr string) Iterator {
	cols := qualifiedCols(tbl, corr)
	return &tableIter{tbl: tbl, cols: cols, st: st}
}

func (it *tableIter) Cols() []string { return it.cols }
func (it *tableIter) SizeHint() int  { return it.tbl.Len() }

func (it *tableIter) Next(ctx context.Context) (Batch, error) {
	if err := it.sg.begin(ctx, it.st); err != nil {
		return nil, err
	}
	if !it.started {
		it.started = true
		if err := fault.Point(FaultScan); err != nil {
			return nil, err
		}
	}
	n := it.tbl.Len()
	if it.pos >= n {
		return nil, nil
	}
	end := it.pos + BatchSize()
	if end > n {
		end = n
	}
	b := make(Batch, 0, end-it.pos)
	for i := it.pos; i < end; i++ {
		b = append(b, it.tbl.Row(i))
	}
	it.st.RowsScanned += int64(len(b))
	it.pos = end
	return it.sg.emit(b)
}

func (it *tableIter) Close() error {
	it.sg.close()
	return nil
}

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
// columns qualified by corr. The caller performs the index probe; the
// seek is counted here so the counter stays inside the engine.
func NewIndexScanIter(st *Stats, tbl *storage.Table, corr string, ords []int) Iterator {
	cols := qualifiedCols(tbl, corr)
	st.IndexSeeks++
	return &indexScanIter{tbl: tbl, cols: cols, ords: ords, st: st}
}

func (it *indexScanIter) Cols() []string { return it.cols }
func (it *indexScanIter) SizeHint() int  { return len(it.ords) }

func (it *indexScanIter) Next(ctx context.Context) (Batch, error) {
	if err := it.sg.begin(ctx, it.st); err != nil {
		return nil, err
	}
	if it.pos >= len(it.ords) {
		return nil, nil
	}
	end := it.pos + BatchSize()
	if end > len(it.ords) {
		end = len(it.ords)
	}
	b := make(Batch, 0, end-it.pos)
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
// predicate under false-interpreted WHERE semantics.
type filterIter struct {
	child   Iterator
	keep    eval.Pred
	cols    []string
	st      *Stats
	sg      streamGuard
	started bool
	closed  bool
}

// NewFilterIter streams child through pred, compiled against the
// child's columns (eval.Compile) once per iterator, or once per worker:
// parallel-safe predicates run on a pipelined exchange when the worker
// pool is wider than one; subquery-bearing predicates stay on the
// caller's goroutine (their evaluation callbacks recurse into shared
// executor state).
func NewFilterIter(st *Stats, child Iterator, pred ast.Expr, envProto *eval.Env) Iterator {
	if pred == nil {
		return child
	}
	cols := child.Cols()
	if w := Workers(); w > 1 && !ast.HasExists(pred) {
		return NewExchangeIter(st, child, cols, w, func() BatchFunc {
			keep := eval.Compile(pred, cols, envProto)
			return func(b Batch, my *Stats) (Batch, error) {
				// Workers see no context: the exchange polls
				// cancellation between batches.
				g := newGuard(nil, my)
				return g.qualifying(make(Batch, 0, len(b)), b, keep, false)
			}
		})
	}
	return &filterIter{
		child: child, keep: eval.Compile(pred, cols, envProto),
		cols: cols, st: st,
	}
}

func (it *filterIter) Cols() []string { return it.cols }

// SizeHint passes through the child's bound: a filter can only shrink
// its input, so the child's upper bound still holds.
func (it *filterIter) SizeHint() int { return sizeHint(it.child) }

func (it *filterIter) Next(ctx context.Context) (Batch, error) {
	if err := it.sg.begin(ctx, it.st); err != nil {
		return nil, err
	}
	if !it.started {
		it.started = true
		if err := fault.Point(FaultFilter); err != nil {
			return nil, err
		}
	}
	bs := BatchSize()
	g := newGuard(ctx, it.st)
	var out Batch
	for {
		b, err := it.child.Next(ctx)
		if err != nil {
			return nil, err
		}
		if b == nil {
			if len(out) > 0 {
				return it.sg.emit(out)
			}
			return nil, nil
		}
		if out, err = g.qualifying(out, b, it.keep, false); err != nil {
			return nil, err
		}
		if len(out) >= bs {
			return it.sg.emit(out)
		}
	}
}

func (it *filterIter) Close() error {
	if it.closed {
		return nil
	}
	it.closed = true
	it.sg.close()
	return it.child.Close()
}

// projectIter streams its child projected onto the named columns.
type projectIter struct {
	child  Iterator
	cols   []string
	idx    []int
	st     *Stats
	sg     streamGuard
	arena  rowArena
	closed bool
}

// NewProjectIter streams child projected onto cols, on a pipelined
// exchange when the worker pool is wider than one.
func NewProjectIter(st *Stats, child Iterator, cols []string) (Iterator, error) {
	idx, err := colIndexesIn(child.Cols(), cols)
	if err != nil {
		return nil, err
	}
	outCols := append([]string(nil), cols...)
	if w := Workers(); w > 1 {
		return NewExchangeIter(st, child, outCols, w, func() BatchFunc {
			arena := rowArena{width: len(idx)}
			return func(b Batch, my *Stats) (Batch, error) {
				out := make(Batch, 0, len(b))
				for _, row := range b {
					nr := arena.next()
					for i, c := range idx {
						nr[i] = row[c]
					}
					out = append(out, nr)
				}
				return out, nil
			}
		}), nil
	}
	return &projectIter{
		child: child, cols: outCols, idx: idx, st: st,
		arena: rowArena{width: len(idx)},
	}, nil
}

func (it *projectIter) Cols() []string { return it.cols }

// SizeHint passes through the child's bound: projection is row-for-row.
func (it *projectIter) SizeHint() int { return sizeHint(it.child) }

func (it *projectIter) Next(ctx context.Context) (Batch, error) {
	if err := it.sg.begin(ctx, it.st); err != nil {
		return nil, err
	}
	b, err := it.child.Next(ctx)
	if err != nil || b == nil {
		return nil, err
	}
	out := make(Batch, 0, len(b))
	for _, row := range b {
		if err := it.sg.step(); err != nil {
			return nil, err
		}
		nr := it.arena.next()
		for i, c := range it.idx {
			nr[i] = row[c]
		}
		out = append(out, nr)
	}
	return it.sg.emit(out)
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
// against hash tables held for the stream's lifetime. When the worker
// pool is wider than one and batches clear the parallel threshold,
// each batch is deduplicated by hash-disjoint partition workers
// in-place — the pipelined replacement for partition-whole-input /
// merge-whole-output.
type distinctHashIter struct {
	child   Iterator
	cols    []string
	st      *Stats
	sg      streamGuard
	w       int
	tables  []*rowTable
	started bool
	noted   bool
	closed  bool
}

// NewDistinctHashIter streams child with duplicates removed.
func NewDistinctHashIter(st *Stats, child Iterator) Iterator {
	w := 1
	if ws := Workers(); ws > 1 {
		w = ws
	}
	// A child size hint presizes the tables (split across partitions
	// when the pool is wide), sparing large streams the incremental
	// rehash-and-relink passes an unsized table pays.
	hint := sizeHint(child)
	tables := make([]*rowTable, w)
	for i := range tables {
		tables[i] = newRowTable(hint / w)
	}
	return &distinctHashIter{
		child: child, cols: child.Cols(), st: st, w: w, tables: tables,
	}
}

func (it *distinctHashIter) Cols() []string { return it.cols }

// SizeHint passes through the child's bound: duplicate elimination can
// only shrink its input.
func (it *distinctHashIter) SizeHint() int { return sizeHint(it.child) }

func (it *distinctHashIter) Next(ctx context.Context) (Batch, error) {
	if err := it.sg.begin(ctx, it.st); err != nil {
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
		var out Batch
		if it.w > 1 && len(b) >= ParallelThreshold() {
			out, err = it.dedupParallel(b)
		} else {
			out, err = it.dedupSerial(b)
		}
		if err != nil {
			return nil, err
		}
		if len(out) > 0 {
			// Emitted rows are retained by the hash tables and already
			// charged as held state: no in-flight charge.
			return it.sg.emitHeld(out)
		}
	}
}

func (it *distinctHashIter) dedupSerial(b Batch) (Batch, error) {
	out := make(Batch, 0, len(b))
	for _, row := range b {
		if err := it.sg.step(); err != nil {
			return nil, err
		}
		h := hashRow(row)
		// Probe and insert the same hash-disjoint partition the parallel
		// path uses: one stream may mix serial (small/final) and parallel
		// (large) batches, and both must see one coherent dedup state.
		t := it.tables[partitionOf(h, it.w)]
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
		t.insert(h, row)
		it.st.HashInserts++
		if err := it.sg.holdRow(row); err != nil {
			return nil, err
		}
		out = append(out, row)
	}
	return out, it.sg.flushHeld()
}

func (it *distinctHashIter) dedupParallel(b Batch) (Batch, error) {
	w := it.w
	if !it.noted {
		it.noted = true
		it.st.ParallelRuns++
		it.st.NoteWorkers(w)
	}
	it.st.ParallelRows += int64(len(b))
	hashes := make([]uint64, len(b))
	parallelFor(len(b), w, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			hashes[i] = hashRow(b[i])
		}
	})
	keep := make([]bool, len(b))
	locals := make([]Stats, w)
	errs := make([]error, w)
	parallelFor(w, w, func(p, _, _ int) {
		if err := fault.Point(FaultPoolWorker); err != nil {
			errs[p] = err
			return
		}
		my := &locals[p]
		t := it.tables[p]
		for i, row := range b {
			h := hashes[i]
			if partitionOf(h, w) != p {
				continue
			}
			my.HashProbes++
			dup := false
			for e := t.find(h); e != rtNone; e = t.entries[e].next {
				my.Comparisons++
				if value.NullEqRows(t.entries[e].row, row) {
					dup = true
					break
				}
			}
			if dup {
				continue
			}
			t.insert(h, row)
			my.HashInserts++
			keep[i] = true
		}
	})
	for p := 0; p < w; p++ {
		it.st.Add(locals[p])
	}
	if err := firstErr(errs); err != nil {
		return nil, err
	}
	out := make(Batch, 0, len(b))
	for i, k := range keep {
		if !k {
			continue
		}
		if err := it.sg.holdRow(b[i]); err != nil {
			return nil, err
		}
		out = append(out, b[i])
	}
	return out, it.sg.flushHeld()
}

func (it *distinctHashIter) Close() error {
	if it.closed {
		return nil
	}
	it.closed = true
	it.sg.close()
	it.tables = nil
	return it.child.Close()
}

// distinctSortIter is the blocking streaming form of DistinctSort: it
// buffers its whole input (charged as held state), sorts and collapses
// runs exactly like the materializing operator, then emits the result
// in batches. It exists so streaming execution preserves DistinctSort's
// sorted output order byte-for-byte.
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
// sort-and-collapse strategy (blocking).
func NewDistinctSortIter(st *Stats, child Iterator) Iterator {
	return &distinctSortIter{child: child, cols: child.Cols(), st: st}
}

func (it *distinctSortIter) Cols() []string { return it.cols }

// SizeHint passes through the child's bound: duplicate elimination can
// only shrink its input.
func (it *distinctSortIter) SizeHint() int { return sizeHint(it.child) }

func (it *distinctSortIter) Next(ctx context.Context) (Batch, error) {
	if err := it.sg.begin(ctx, it.st); err != nil {
		return nil, err
	}
	if !it.built {
		if err := fault.Point(FaultDistinct); err != nil {
			return nil, err
		}
		var rows []value.Row
		for {
			b, err := it.child.Next(ctx)
			if err != nil {
				return nil, err
			}
			if b == nil {
				break
			}
			if err := it.sg.holdBatch(b); err != nil {
				return nil, err
			}
			rows = append(rows, b...)
		}
		if err := it.child.Close(); err != nil {
			return nil, err
		}
		it.st.SortRuns++
		it.st.RowsSorted += int64(len(rows))
		sortRowsBy(rows, func(a, b value.Row) int {
			it.st.Comparisons++
			return value.OrderCompareRows(a, b)
		})
		for i, row := range rows {
			if err := it.sg.step(); err != nil {
				return nil, err
			}
			if i > 0 {
				it.st.Comparisons++
				if value.NullEqRows(rows[i-1], row) {
					continue
				}
			}
			it.buf = append(it.buf, row)
		}
		it.built = true
	}
	if it.pos >= len(it.buf) {
		return nil, nil
	}
	end := it.pos + BatchSize()
	if end > len(it.buf) {
		end = len(it.buf)
	}
	b := Batch(it.buf[it.pos:end:end])
	it.pos = end
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

// hashJoinIter streams an equi-join: the build side (right input) is
// drained into a hash table on the first Next — the join's only
// blocking state — and the probe side (left input) streams through it
// batch by batch. Output order is probe order with build-chain order
// inside a key, identical to HashJoin and ParallelHashJoin.
type hashJoinIter struct {
	probe, build Iterator
	cols         []string
	pi, bi       []int
	st           *Stats
	sg           streamGuard
	table        *rowTable
	keyBuf       value.Row
	arena        rowArena
	built        bool
	pb           Batch
	pidx         int
	closed       bool
}

// NewHashJoinIter streams probe ⋈ build on probeKeys = buildKeys.
// WHERE-clause equality semantics: rows with NULL join keys never
// match. Output columns are probe's then build's.
func NewHashJoinIter(st *Stats, probe, build Iterator, probeKeys, buildKeys []string) (Iterator, error) {
	pc, bc := probe.Cols(), build.Cols()
	pi, err := colIndexesIn(pc, probeKeys)
	if err != nil {
		return nil, err
	}
	bi, err := colIndexesIn(bc, buildKeys)
	if err != nil {
		return nil, err
	}
	cols := append(append([]string{}, pc...), bc...)
	return &hashJoinIter{
		probe: probe, build: build, cols: cols, pi: pi, bi: bi, st: st,
		table:  newRowTable(sizeHint(build)),
		keyBuf: make(value.Row, len(bi)),
		arena:  rowArena{width: len(pc) + len(bc)},
	}, nil
}

func (j *hashJoinIter) Cols() []string { return j.cols }

func (j *hashJoinIter) buildTable(ctx context.Context) error {
	for {
		b, err := j.build.Next(ctx)
		if err != nil {
			return err
		}
		if b == nil {
			break
		}
		for _, row := range b {
			if err := j.sg.step(); err != nil {
				return err
			}
			if hasNullAt(row, j.bi) {
				continue
			}
			for i, c := range j.bi {
				j.keyBuf[i] = row[c]
			}
			j.table.insert(hashRow(j.keyBuf), row)
			j.st.HashInserts++
			if err := j.sg.holdRow(row); err != nil {
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
	if err := j.sg.begin(ctx, j.st); err != nil {
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
	bs := BatchSize()
	var out Batch
	for {
		if j.pb == nil {
			b, err := j.probe.Next(ctx)
			if err != nil {
				return nil, err
			}
			if b == nil {
				if len(out) > 0 {
					return j.sg.emit(out)
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
			if hasNullAt(prow, j.pi) {
				continue
			}
			for i, c := range j.pi {
				j.keyBuf[i] = prow[c]
			}
			j.st.HashProbes++
			h := hashRow(j.keyBuf)
			for e := j.table.find(h); e != rtNone; e = j.table.entries[e].next {
				brow := j.table.entries[e].row
				j.st.JoinPairs++
				if !equalAt(prow, j.pi, brow, j.bi, j.st) {
					continue
				}
				nr := j.arena.next()
				copy(nr, prow)
				copy(nr[len(prow):], brow)
				out = append(out, nr)
			}
			if len(out) >= bs {
				return j.sg.emit(out)
			}
		}
		j.pb = nil
	}
}

func (j *hashJoinIter) Close() error {
	if j.closed {
		return nil
	}
	j.closed = true
	j.sg.close()
	j.table = nil
	err1 := j.probe.Close()
	err2 := j.build.Close()
	if err1 != nil {
		return err1
	}
	return err2
}

// symSide is one input of a symmetric hash join: its iterator, its
// key ordinals, and the hash table of its rows seen so far.
type symSide struct {
	it    Iterator
	ki    []int
	table *rowTable
	done  bool
}

// symmetricHashJoinIter equi-joins two streams without a blocking
// build phase: it alternates pulls between the inputs, probing each
// arriving row against the opposite side's table before inserting it
// into its own. Both tables are held state; every matching pair is
// emitted exactly once (when its second row arrives), so the result is
// multiset-equal to HashJoin — though in arrival order, not probe
// order. Use it when both inputs are unbounded streams and neither can
// be materialized as a build side.
type symmetricHashJoinIter struct {
	l, r   symSide
	cols   []string
	lw     int // left row width, for output orientation
	st     *Stats
	sg     streamGuard
	keyBuf value.Row
	arena  rowArena
	turn   int
	closed bool
}

// NewSymmetricHashJoinIter streams l ⋈ r on lKeys = rKeys with both
// sides incremental. Output columns are l's then r's.
func NewSymmetricHashJoinIter(st *Stats, l, r Iterator, lKeys, rKeys []string) (Iterator, error) {
	lc, rc := l.Cols(), r.Cols()
	li, err := colIndexesIn(lc, lKeys)
	if err != nil {
		return nil, err
	}
	ri, err := colIndexesIn(rc, rKeys)
	if err != nil {
		return nil, err
	}
	cols := append(append([]string{}, lc...), rc...)
	return &symmetricHashJoinIter{
		l:      symSide{it: l, ki: li, table: newRowTable(sizeHint(l))},
		r:      symSide{it: r, ki: ri, table: newRowTable(sizeHint(r))},
		cols:   cols,
		lw:     len(lc),
		st:     st,
		keyBuf: make(value.Row, len(li)),
		arena:  rowArena{width: len(lc) + len(rc)},
	}, nil
}

func (j *symmetricHashJoinIter) Cols() []string { return j.cols }

func (j *symmetricHashJoinIter) Next(ctx context.Context) (Batch, error) {
	if err := j.sg.begin(ctx, j.st); err != nil {
		return nil, err
	}
	bs := BatchSize()
	var out Batch
	for {
		side, other := &j.l, &j.r
		if j.turn == 1 {
			side, other = &j.r, &j.l
		}
		j.turn = 1 - j.turn
		if side.done {
			side, other = other, side
			if side.done {
				if len(out) > 0 {
					return j.sg.emit(out)
				}
				return nil, nil
			}
		}
		b, err := side.it.Next(ctx)
		if err != nil {
			return nil, err
		}
		if b == nil {
			side.done = true
			if err := side.it.Close(); err != nil {
				return nil, err
			}
			continue
		}
		fromLeft := side == &j.l
		for _, row := range b {
			if err := j.sg.step(); err != nil {
				return nil, err
			}
			if hasNullAt(row, side.ki) {
				continue
			}
			for i, c := range side.ki {
				j.keyBuf[i] = row[c]
			}
			h := hashRow(j.keyBuf)
			j.st.HashProbes++
			for e := other.table.find(h); e != rtNone; e = other.table.entries[e].next {
				orow := other.table.entries[e].row
				j.st.JoinPairs++
				if !equalAt(row, side.ki, orow, other.ki, j.st) {
					continue
				}
				nr := j.arena.next()
				if fromLeft {
					copy(nr, row)
					copy(nr[j.lw:], orow)
				} else {
					copy(nr, orow)
					copy(nr[j.lw:], row)
				}
				out = append(out, nr)
			}
			side.table.insert(h, row)
			j.st.HashInserts++
			if err := j.sg.holdRow(row); err != nil {
				return nil, err
			}
		}
		if err := j.sg.flushHeld(); err != nil {
			return nil, err
		}
		if len(out) >= bs {
			return j.sg.emit(out)
		}
	}
}

func (j *symmetricHashJoinIter) Close() error {
	if j.closed {
		return nil
	}
	j.closed = true
	j.sg.close()
	j.l.table, j.r.table = nil, nil
	err1 := j.l.it.Close()
	err2 := j.r.it.Close()
	if err1 != nil {
		return err1
	}
	return err2
}

// productIter streams the extended Cartesian product: the left input
// streams once, the right is buffered (held state) and replayed per
// left row via a BufferedIterator.
type productIter struct {
	left   Iterator
	right  *BufferedIterator
	cols   []string
	st     *Stats
	sg     streamGuard
	arena  rowArena
	lb     Batch
	li     int
	rb     Batch
	ri     int
	closed bool
}

// NewProductIter streams l × r.
func NewProductIter(st *Stats, l, r Iterator) Iterator {
	lc, rc := l.Cols(), r.Cols()
	cols := append(append([]string{}, lc...), rc...)
	return &productIter{
		left:  l,
		right: NewBufferedIterator(st, r),
		cols:  cols,
		st:    st,
		arena: rowArena{width: len(lc) + len(rc)},
	}
}

func (j *productIter) Cols() []string { return j.cols }

func (j *productIter) Next(ctx context.Context) (Batch, error) {
	if err := j.sg.begin(ctx, j.st); err != nil {
		return nil, err
	}
	bs := BatchSize()
	var out Batch
	for {
		if j.lb == nil {
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
			if len(b) == 0 {
				continue
			}
			j.lb, j.li = b, 0
			j.right.Rewind()
			j.rb, j.ri = nil, 0
		}
		lrow := j.lb[j.li]
		if j.ri >= len(j.rb) {
			rb, err := j.right.Next(ctx)
			if err != nil {
				return nil, err
			}
			if rb == nil {
				// This left row is done against the whole right side.
				j.li++
				if j.li >= len(j.lb) {
					j.lb = nil
				} else {
					j.right.Rewind()
				}
				j.rb, j.ri = nil, 0
				continue
			}
			j.rb, j.ri = rb, 0
			continue
		}
		for j.ri < len(j.rb) {
			rr := j.rb[j.ri]
			j.ri++
			if err := j.sg.step(); err != nil {
				return nil, err
			}
			j.st.JoinPairs++
			nr := j.arena.next()
			copy(nr, lrow)
			copy(nr[len(lrow):], rr)
			out = append(out, nr)
			if len(out) >= bs {
				return j.sg.emit(out)
			}
		}
	}
}

func (j *productIter) Close() error {
	if j.closed {
		return nil
	}
	j.closed = true
	j.sg.close()
	err1 := j.left.Close()
	err2 := j.right.Close()
	if err1 != nil {
		return err1
	}
	return err2
}
