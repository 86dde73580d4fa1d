package engine

import (
	"context"
	"errors"
	"fmt"

	"uniqopt/internal/eval"
	"uniqopt/internal/fault"
	"uniqopt/internal/sql/ast"
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
// release it at Close. Constructors take column ordinals and output
// column names resolved once per statement shape (ColIndexes), not per
// execution; they check the ordinals against their inputs, so a
// malformed plan fails at assembly instead of panicking mid-stream.

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
// columns named cols. The caller performs the index probe; the seek is
// counted here so the counter stays inside the engine.
func NewIndexScanIter(st *Stats, tbl *storage.Table, cols []string, ords []int) Iterator {
	st.IndexSeeks++
	return &indexScanIter{tbl: tbl, cols: cols, ords: ords, st: st}
}

func (it *indexScanIter) Cols() []string { return it.cols }

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

// NewFilterIter streams child through pred, compiled against the
// child's columns (eval.CompileFilter) once per iterator.
func NewFilterIter(st *Stats, child Iterator, pred ast.Expr, envProto *eval.Env) Iterator {
	if pred == nil {
		return child
	}
	cols := child.Cols()
	return &filterIter{
		child: child, keep: eval.CompileFilter(pred, cols, envProto),
		cols: cols, st: st,
	}
}

func (it *filterIter) Cols() []string { return it.cols }

func (it *filterIter) emit(out Batch) (Batch, error) {
	it.last = len(out)
	return it.sg.emit(out)
}

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
		// appends a row at a time, so it starts a short stream at a
		// quarter of its input.
		if kept, ok := it.keep.Select(out, b, it.sg.sc.grow); ok {
			out = kept
		} else {
			if out == nil {
				out = it.sg.sc.batch(len(b) / 4)
			}
			if out, err = g.qualifying(out, b, it.keep.Pred); err != nil {
				return nil, err
			}
		}
		if len(out) >= bs {
			return it.emit(out)
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

// projectIter streams its child projected onto the columns at idx. When
// idx is the identity — the child already emits the projection's layout,
// as the top join of a block does — the child's batches pass through
// uncopied: a batch is immutable after handoff, so handing the same one
// on shares nothing that can change; the child's in-flight charge
// covers it, and the projection only counts the emit.
type projectIter struct {
	child    Iterator
	cols     []string
	idx      []int
	identity bool
	st       *Stats
	sg       streamGuard
	closed   bool
}

// checkOrdinals reports the first ordinal of idx that is not a column
// of cols.
func checkOrdinals(cols []string, idx []int) error {
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
	slab := sc.cells(len(b) * w)
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

// isIdentity reports whether idx selects every one of n columns in place.
func isIdentity(idx []int, n int) bool {
	if len(idx) != n {
		return false
	}
	for i, c := range idx {
		if c != i {
			return false
		}
	}
	return true
}

// NewProjectIter streams child projected onto its columns at idx, named
// cols — passed through when idx is the identity, else copied.
func NewProjectIter(st *Stats, child Iterator, cols []string, idx []int) (Iterator, error) {
	if err := checkOrdinals(child.Cols(), idx); err != nil {
		return nil, err
	}
	identity := isIdentity(idx, len(child.Cols()))
	return &projectIter{child: child, cols: cols, idx: idx, identity: identity, st: st}, nil
}

func (it *projectIter) Cols() []string { return it.cols }

func (it *projectIter) Next(ctx context.Context) (Batch, error) {
	if err := it.sg.begin(ctx, it.st); err != nil {
		return nil, err
	}
	b, err := it.child.Next(ctx)
	if err != nil || b == nil {
		return nil, err
	}
	if it.identity {
		return it.sg.emitHeld(b)
	}
	return it.sg.emit(project(it.sg.sc, b, it.idx))
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

// NewDistinctHashIter streams child with duplicates removed.
func NewDistinctHashIter(st *Stats, child Iterator) Iterator {
	return &distinctHashIter{child: child, cols: child.Cols(), st: st}
}

func (it *distinctHashIter) Cols() []string { return it.cols }

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

// distinctSortIter is the blocking iterator form of DistinctSort: it
// buffers its whole input (charged as held state), sorts it and
// collapses runs exactly like the reference operator, then emits the
// result — in DistinctSort's sorted order — in batches. It runs only as
// the paper's baseline for experiment E1 (plan.Options.SortDistinct).
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

func (it *distinctSortIter) Next(ctx context.Context) (Batch, error) {
	if err := it.sg.begin(ctx, it.st); err != nil {
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
		sortCounted(it.st, rows)
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
// l EXCEPT [ALL] r, under ≐ row equivalence. Output columns are l's.
func NewSetOpIter(st *Stats, l, r Iterator, except, all bool) Iterator {
	merge := intersectSorted
	if except {
		merge = exceptSorted
	}
	return &setOpIter{l: l, r: r, merge: merge, all: all, st: st}
}

func (it *setOpIter) Cols() []string { return it.l.Cols() }

func (it *setOpIter) Next(ctx context.Context) (Batch, error) {
	if err := it.sg.begin(ctx, it.st); err != nil {
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
		sortCounted(it.st, lrows)
		sortCounted(it.st, rrows)
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
	cols         []string
	emit         Emit
	pi, bi       []int
	st           *Stats
	sg           streamGuard
	table        *rowTable
	keyBuf       value.Row
	built        bool
	pb           Batch
	pidx         int
	last         int // the length of the batch last emitted
	closed       bool
}

// NewHashJoinIter streams probe ⋈ build on the probe columns at pi
// equal to the build columns at bi. WHERE-clause equality semantics:
// rows with NULL join keys never match. emit lays out the output: probe
// is its left input, build its right.
func NewHashJoinIter(st *Stats, probe, build Iterator, emit Emit, pi, bi []int) (Iterator, error) {
	if len(pi) != len(bi) {
		return nil, fmt.Errorf("engine: hash join on %d probe and %d build key columns", len(pi), len(bi))
	}
	cols, err := emit.cols(probe.Cols(), build.Cols())
	if err != nil {
		return nil, err
	}
	if err := checkOrdinals(probe.Cols(), pi); err != nil {
		return nil, err
	}
	if err := checkOrdinals(build.Cols(), bi); err != nil {
		return nil, err
	}
	return &hashJoinIter{
		probe: probe, build: build, cols: cols, emit: emit, pi: pi, bi: bi, st: st,
		table:  &rowTable{},
		keyBuf: make(value.Row, len(bi)),
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
		// The table is sized by the batches that arrive, not by a bound
		// on them — a selective filter keeps a fraction of what it might
		// — and most build sides arrive in one.
		j.table.reserve(j.sg.sc, len(b))
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
				nr := sc.cells(len(j.emit))
				j.emit.fill(nr, prow, brow)
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
	j.table = nil
	return errors.Join(j.probe.Close(), j.build.Close())
}

// IndexKeyPart binds one leading column of the index an index join
// probes: to the outer row's column at Ord, or, when Ord is negative, to
// the constant Const.
type IndexKeyPart struct {
	Ord   int
	Const value.Value
}

// IndexProbe is the inner side of an index join: a base table reached
// through one of its ordered indexes. Key binds a leading prefix of the
// index's columns; Pred, named over Cols (the table's columns under its
// correlation name), is what a fetched row must still satisfy.
type IndexProbe struct {
	Tbl  *storage.Table
	Ix   *storage.OrderedIndex
	Cols []string
	Key  []IndexKeyPart
	Pred ast.Expr
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
	in      IndexProbe
	cols    []string
	emit    Emit      // the join form's layout; unused by the semi form
	keep    eval.Pred // nil = every fetched row qualifies
	semi    bool
	st      *Stats
	sg      streamGuard
	keyBuf  value.Row
	ob      Batch          // the outer batch being probed
	oidx    int            // the next row of ob
	orow    value.Row      // the outer row whose entries are being fetched
	pos     storage.Cursor // the next entry of the index to fetch for it
	probing bool           // orow's entries are not exhausted
	started bool
	closed  bool
}

// NewIndexJoinIter streams outer joined to in.Tbl on in.Key, the table's
// rows fetched through in.Ix. WHERE-clause equality semantics: a key
// with a NULL component matches nothing, although the index files NULLs
// together. emit lays out the output: outer is its left input, the table
// (in.Cols) its right. A semi join takes no emit: it emits each outer
// row that has a qualifying entry once, as it came, and no column of the
// table.
func NewIndexJoinIter(st *Stats, outer Iterator, in IndexProbe, env *eval.Env, semi bool, emit Emit) (Iterator, error) {
	if len(in.Key) == 0 || len(in.Key) > len(in.Ix.Columns) {
		return nil, fmt.Errorf("engine: index join binds %d of index %s's %d columns",
			len(in.Key), in.Ix.Name, len(in.Ix.Columns))
	}
	for _, k := range in.Key {
		if k.Ord >= len(outer.Cols()) {
			return nil, fmt.Errorf("engine: relation has no column #%d (cols: %v)", k.Ord, outer.Cols())
		}
	}
	cols := outer.Cols()
	if !semi {
		var err error
		if cols, err = emit.cols(outer.Cols(), in.Cols); err != nil {
			return nil, err
		}
	}
	j := &indexJoinIter{
		outer: outer, in: in, cols: cols, emit: emit, semi: semi, st: st,
		keyBuf: make(value.Row, len(in.Key)),
	}
	if in.Pred != nil {
		j.keep = eval.Compile(in.Pred, in.Cols, env)
	}
	return j, nil
}

func (j *indexJoinIter) Cols() []string { return j.cols }

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
			v := k.Const
			if k.Ord >= 0 {
				v = j.orow[k.Ord]
			}
			null = null || v.IsNull()
			j.keyBuf[i] = v
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
	if err := j.sg.begin(ctx, j.st); err != nil {
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
			if j.keep != nil {
				t, err := j.keep(irow)
				if err != nil {
					return nil, err
				}
				if !tvl.FalseInterpreted(t) {
					continue
				}
			}
			if j.semi {
				out = sc.push(out, j.orow)
				j.probing = false
			} else {
				nr := sc.cells(len(j.emit))
				j.emit.fill(nr, j.orow, irow)
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
	cols        []string
	emit        Emit
	st          *Stats
	sg          streamGuard
	lb          Batch // the left batch being paired
	li, ri      int   // the next pair: lb[li] with inner[ri]
	built       bool
	closed      bool
}

// NewProductIter streams l × r, every pair laid out by emit.
func NewProductIter(st *Stats, l, r Iterator, emit Emit) (Iterator, error) {
	cols, err := emit.cols(l.Cols(), r.Cols())
	if err != nil {
		return nil, err
	}
	return &productIter{left: l, right: r, cols: cols, emit: emit, st: st}, nil
}

func (j *productIter) Cols() []string { return j.cols }

func (j *productIter) Next(ctx context.Context) (Batch, error) {
	if err := j.sg.begin(ctx, j.st); err != nil {
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
			nr := sc.cells(len(j.emit))
			j.emit.fill(nr, lrow, rr)
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
