package engine

import (
	"context"

	"uniqopt/internal/eval"
	"uniqopt/internal/fault"
	"uniqopt/internal/sql/ast"
	"uniqopt/internal/value"
)

// Parallel partitioned operators. Each operator splits its probe (or
// sole) input into contiguous chunks — one per worker — and its hash
// side into hash-disjoint partitions, so no lock is ever taken on row
// data. Outputs are concatenated in chunk order and hash buckets are
// filled in input order, which makes every parallel operator produce a
// relation byte-identical to its serial counterpart: same rows, same
// order. Work counters are collected in per-worker Stats instances and
// merged through Stats.Add after the barrier.
//
// Lifecycle: every worker polls the query context and charges the
// shared governor through its own guard, reporting through a per-chunk
// error slot; parallelFor always joins its workers before the first
// error is returned, so a cancelled or over-budget query leaves no
// goroutine behind.

// hashRow is the row-hash function used by every hash-based operator.
// It is a variable so tests can substitute a degenerate hash and force
// every row into one bucket/partition, proving the collision fallback
// (row-by-row ≐ comparison on hash match) in all operators.
var hashRow = value.HashRow

// firstErr returns the lowest-chunk error, keeping failure
// deterministic regardless of worker interleaving.
func firstErr(errs []error) error {
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return nil
}

// rowHashes computes the hash of every row in parallel. The returned
// null slice flags rows with a NULL in any key column (idx non-nil);
// such rows never participate in hash matching under WHERE semantics.
func rowHashes(ctx context.Context, rows []value.Row, idx []int, workers int) (hashes []uint64, nulls []bool, err error) {
	hashes = make([]uint64, len(rows))
	if idx != nil {
		nulls = make([]bool, len(rows))
	}
	key := idx == nil
	errs := make([]error, workers)
	parallelFor(len(rows), workers, func(c, lo, hi int) {
		var kbuf value.Row
		if !key {
			kbuf = make(value.Row, len(idx))
		}
		var st Stats
		g := newGuard(ctx, &st)
		for i := lo; i < hi; i++ {
			if err := g.step(); err != nil {
				errs[c] = err
				return
			}
			row := rows[i]
			if key {
				hashes[i] = hashRow(row)
				continue
			}
			if hasNullAt(row, idx) {
				nulls[i] = true
				continue
			}
			for k, c := range idx {
				kbuf[k] = row[c]
			}
			hashes[i] = hashRow(kbuf)
		}
	})
	if err := firstErr(errs); err != nil {
		return nil, nil, err
	}
	return hashes, nulls, nil
}

// buildPartitioned builds P hash-disjoint tables over rows: partition
// h%P owns every row whose key hash is h. Each partition is built by
// one worker scanning the precomputed hashes, so bucket contents stay
// in input order — exactly what a serial single-table build produces.
// Inserted rows are charged to the query governor.
func buildPartitioned(ctx context.Context, st *Stats, rows []value.Row, hashes []uint64, nulls []bool, parts int) ([]map[uint64][]value.Row, error) {
	tables := make([]map[uint64][]value.Row, parts)
	locals := make([]Stats, parts)
	errs := make([]error, parts)
	parallelFor(parts, parts, func(p, _, _ int) {
		if err := fault.Point(FaultPoolWorker); err != nil {
			errs[p] = err
			return
		}
		g := newGuard(ctx, &locals[p])
		ht := make(map[uint64][]value.Row, len(rows)/parts+1)
		for i, row := range rows {
			if err := g.step(); err != nil {
				errs[p] = err
				return
			}
			if nulls != nil && nulls[i] {
				continue
			}
			h := hashes[i]
			if partitionOf(h, parts) != p {
				continue
			}
			ht[h] = append(ht[h], row)
			locals[p].HashInserts++
			if err := g.keep(row); err != nil {
				errs[p] = err
				return
			}
		}
		errs[p] = g.finish()
		tables[p] = ht
	})
	for i := range locals {
		st.Add(locals[i])
	}
	if err := firstErr(errs); err != nil {
		return nil, err
	}
	return tables, nil
}

// ParallelHashJoin is the partitioned-parallel form of HashJoin: the
// right input is built into hash-disjoint partition tables, the left
// is probed in contiguous chunks. The build side is fixed (build
// right, like HashJoin) so every execution path emits identical row
// orders. Identical output to HashJoin.
func ParallelHashJoin(ctx context.Context, st *Stats, l, r *Relation, lKeys, rKeys []string, workers int) (*Relation, error) {
	li, err := l.colIndexes(lKeys)
	if err != nil {
		return nil, err
	}
	ri, err := r.colIndexes(rKeys)
	if err != nil {
		return nil, err
	}
	out := &Relation{Cols: append(append([]string{}, l.Cols...), r.Cols...)}

	st.ParallelRuns++
	st.NoteWorkers(workers)
	st.ParallelRows += int64(len(l.Rows) + len(r.Rows))

	bh, bn, err := rowHashes(ctx, r.Rows, ri, workers)
	if err != nil {
		return nil, err
	}
	tables, err := buildPartitioned(ctx, st, r.Rows, bh, bn, workers)
	if err != nil {
		return nil, err
	}
	if err := fault.Point(FaultHashProbe); err != nil {
		return nil, err
	}
	ph, pn, err := rowHashes(ctx, l.Rows, li, workers)
	if err != nil {
		return nil, err
	}

	chunkOut := make([][]value.Row, workers)
	locals := make([]Stats, workers)
	errs := make([]error, workers)
	chunks := parallelFor(len(l.Rows), workers, func(c, lo, hi int) {
		if err := fault.Point(FaultPoolWorker); err != nil {
			errs[c] = err
			return
		}
		my := &locals[c]
		g := newGuard(ctx, my)
		arena := rowArena{width: len(l.Cols) + len(r.Cols)}
		var rows []value.Row
		for i := lo; i < hi; i++ {
			if err := g.step(); err != nil {
				errs[c] = err
				return
			}
			if pn[i] {
				continue
			}
			prow := l.Rows[i]
			h := ph[i]
			my.HashProbes++
			for _, brow := range tables[partitionOf(h, workers)][h] {
				my.JoinPairs++
				if !equalAt(prow, li, brow, ri, my) {
					continue
				}
				row := arena.next()
				n := copy(row, prow)
				copy(row[n:], brow)
				rows = append(rows, row)
				if err := g.keep(row); err != nil {
					errs[c] = err
					return
				}
			}
		}
		errs[c] = g.finish()
		chunkOut[c] = rows
	})
	for c := 0; c < chunks; c++ {
		st.Add(locals[c])
	}
	if err := firstErr(errs); err != nil {
		return nil, err
	}
	for c := 0; c < chunks; c++ {
		out.Rows = append(out.Rows, chunkOut[c]...)
	}
	return out, nil
}

// ParallelDistinctHash removes duplicates (≐ semantics) with
// per-partition hash tables: rows with equal hashes land in the same
// partition, so each partition dedups independently. Survivors are
// marked in a shared keep-bit slice — partitions own hash-disjoint row
// indices, so no two workers touch the same element — and a single
// in-order sweep emits them, reproducing DistinctHash's
// first-occurrence order without the index merge-and-sort pass that
// made the previous implementation regress below serial.
func ParallelDistinctHash(ctx context.Context, st *Stats, rel *Relation, workers int) (*Relation, error) {
	st.ParallelRuns++
	st.NoteWorkers(workers)
	st.ParallelRows += int64(len(rel.Rows))
	hashes, _, err := rowHashes(ctx, rel.Rows, nil, workers)
	if err != nil {
		return nil, err
	}

	keep := make([]bool, len(rel.Rows))
	locals := make([]Stats, workers)
	errs := make([]error, workers)
	parallelFor(workers, workers, func(p, _, _ int) {
		if err := fault.Point(FaultPoolWorker); err != nil {
			errs[p] = err
			return
		}
		my := &locals[p]
		g := newGuard(ctx, my)
		seen := newRowTable(len(rel.Rows)/workers + 1)
		for i, row := range rel.Rows {
			if err := g.step(); err != nil {
				errs[p] = err
				return
			}
			h := hashes[i]
			if partitionOf(h, workers) != p {
				continue
			}
			my.HashProbes++
			dup := false
			for e := seen.find(h); e != rtNone; e = seen.entries[e].next {
				my.Comparisons++
				if value.NullEqRows(seen.entries[e].row, row) {
					dup = true
					break
				}
			}
			if dup {
				continue
			}
			seen.insert(h, row)
			my.HashInserts++
			keep[i] = true
			if err := g.keep(row); err != nil {
				errs[p] = err
				return
			}
		}
		errs[p] = g.finish()
	})
	for p := 0; p < workers; p++ {
		st.Add(locals[p])
	}
	if err := firstErr(errs); err != nil {
		return nil, err
	}
	n := 0
	for _, k := range keep {
		if k {
			n++
		}
	}
	out := &Relation{Cols: rel.Cols, Rows: make([]value.Row, 0, n)}
	for i, k := range keep {
		if k {
			out.Rows = append(out.Rows, rel.Rows[i])
		}
	}
	return out, nil
}

// ParallelSemiJoinHash is the partitioned-parallel form of
// SemiJoinHash: partitioned build on r, chunked probe of l. Identical
// output to SemiJoinHash (l's row order is preserved).
func ParallelSemiJoinHash(ctx context.Context, st *Stats, l, r *Relation, lKeys, rKeys []string, workers int) (*Relation, error) {
	li, err := l.colIndexes(lKeys)
	if err != nil {
		return nil, err
	}
	ri, err := r.colIndexes(rKeys)
	if err != nil {
		return nil, err
	}
	st.ParallelRuns++
	st.NoteWorkers(workers)
	st.ParallelRows += int64(len(l.Rows) + len(r.Rows))

	rh, rn, err := rowHashes(ctx, r.Rows, ri, workers)
	if err != nil {
		return nil, err
	}
	tables, err := buildPartitioned(ctx, st, r.Rows, rh, rn, workers)
	if err != nil {
		return nil, err
	}
	lh, ln, err := rowHashes(ctx, l.Rows, li, workers)
	if err != nil {
		return nil, err
	}

	chunkOut := make([][]value.Row, workers)
	locals := make([]Stats, workers)
	errs := make([]error, workers)
	chunks := parallelFor(len(l.Rows), workers, func(c, lo, hi int) {
		if err := fault.Point(FaultPoolWorker); err != nil {
			errs[c] = err
			return
		}
		my := &locals[c]
		g := newGuard(ctx, my)
		var rows []value.Row
		for i := lo; i < hi; i++ {
			if err := g.step(); err != nil {
				errs[c] = err
				return
			}
			if ln[i] {
				continue
			}
			lr := l.Rows[i]
			h := lh[i]
			my.HashProbes++
			for _, rr := range tables[partitionOf(h, workers)][h] {
				if equalAt(lr, li, rr, ri, my) {
					rows = append(rows, lr)
					if err := g.keep(lr); err != nil {
						errs[c] = err
						return
					}
					break
				}
			}
		}
		errs[c] = g.finish()
		chunkOut[c] = rows
	})
	out := &Relation{Cols: l.Cols}
	for c := 0; c < chunks; c++ {
		st.Add(locals[c])
	}
	if err := firstErr(errs); err != nil {
		return nil, err
	}
	for c := 0; c < chunks; c++ {
		out.Rows = append(out.Rows, chunkOut[c]...)
	}
	return out, nil
}

// ParallelProject projects rel onto cols with chunked row rewriting.
// Identical output to Project.
func ParallelProject(ctx context.Context, st *Stats, rel *Relation, cols []string, workers int) (*Relation, error) {
	idx, err := rel.colIndexes(cols)
	if err != nil {
		return nil, err
	}
	st.ParallelRuns++
	st.NoteWorkers(workers)
	st.ParallelRows += int64(len(rel.Rows))
	out := &Relation{Cols: append([]string(nil), cols...)}
	out.Rows = make([]value.Row, len(rel.Rows))
	locals := make([]Stats, workers)
	errs := make([]error, workers)
	chunks := parallelFor(len(rel.Rows), workers, func(c, lo, hi int) {
		if err := fault.Point(FaultPoolWorker); err != nil {
			errs[c] = err
			return
		}
		g := newGuard(ctx, &locals[c])
		for ri := lo; ri < hi; ri++ {
			if err := g.step(); err != nil {
				errs[c] = err
				return
			}
			row := rel.Rows[ri]
			nr := make(value.Row, len(idx))
			for i, c := range idx {
				nr[i] = row[c]
			}
			out.Rows[ri] = nr
			if err := g.keep(nr); err != nil {
				errs[c] = err
				return
			}
		}
		errs[c] = g.finish()
	})
	for c := 0; c < chunks; c++ {
		st.Add(locals[c])
	}
	if err := firstErr(errs); err != nil {
		return nil, err
	}
	return out, nil
}

// ParallelFilter evaluates pred over contiguous chunks of rel, each
// worker with its own compilation of pred against envProto. The caller
// must ensure pred is parallel-safe: no EXISTS / IN-subquery leaves
// (their evaluation callbacks recurse into shared executor state).
// Identical output to Filter.
func ParallelFilter(ctx context.Context, st *Stats, rel *Relation, pred ast.Expr, envProto *eval.Env, workers int) (*Relation, error) {
	if pred == nil {
		return rel, nil
	}
	st.ParallelRuns++
	st.NoteWorkers(workers)
	st.ParallelRows += int64(len(rel.Rows))
	chunkOut := make([][]value.Row, workers)
	locals := make([]Stats, workers)
	errs := make([]error, workers)
	chunks := parallelFor(len(rel.Rows), workers, func(c, lo, hi int) {
		if err := fault.Point(FaultPoolWorker); err != nil {
			errs[c] = err
			return
		}
		g := newGuard(ctx, &locals[c])
		rows, err := g.qualifying(nil, rel.Rows[lo:hi], eval.Compile(pred, rel.Cols, envProto), true)
		if err != nil {
			errs[c] = err
			return
		}
		errs[c] = g.finish()
		chunkOut[c] = rows
	})
	for c := 0; c < chunks; c++ {
		st.Add(locals[c])
	}
	if err := firstErr(errs); err != nil {
		return nil, err
	}
	out := &Relation{Cols: rel.Cols}
	for c := 0; c < chunks; c++ {
		out.Rows = append(out.Rows, chunkOut[c]...)
	}
	return out, nil
}
