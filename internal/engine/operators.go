package engine

import (
	"context"

	"uniqopt/internal/eval"
	"uniqopt/internal/fault"
	"uniqopt/internal/sql/ast"
	"uniqopt/internal/storage"
	"uniqopt/internal/tvl"
	"uniqopt/internal/value"
)

// Every operator takes the query's context and threads it into a
// lifecycle guard (lifecycle.go): cooperative cancellation polls per
// row, batched budget charges at materialization points, and a typed
// error return instead of an internal panic. Serial and parallel paths
// enforce the same lifecycle.

// qualifiedCols names tbl's columns as a scan under the correlation
// name corr emits them ("CORR.COLUMN").
func qualifiedCols(tbl *storage.Table, corr string) []string {
	cols := make([]string, len(tbl.Schema.Columns))
	for i, c := range tbl.Schema.Columns {
		cols[i] = corr + "." + c.Name
	}
	return cols
}

// Scan materializes a base table as a relation whose columns are
// qualified with the correlation name corr.
func Scan(ctx context.Context, st *Stats, tbl *storage.Table, corr string) (*Relation, error) {
	if err := fault.Point(FaultScan); err != nil {
		return nil, err
	}
	g := newGuard(ctx, st)
	cols := qualifiedCols(tbl, corr)
	out := &Relation{Cols: cols, Rows: make([]value.Row, tbl.Len())}
	for i := 0; i < tbl.Len(); i++ {
		if err := g.step(); err != nil {
			return nil, err
		}
		out.Rows[i] = tbl.Row(i)
		if err := g.keep(out.Rows[i]); err != nil {
			return nil, err
		}
	}
	st.RowsScanned += int64(tbl.Len())
	return out, g.finish()
}

// ScanInPlace is Scan for a caller that puts a Filter directly on the
// result: the relation shares the table's row slice instead of copying
// its headers, and nothing is charged to the governor — nothing was
// materialized, and the Filter charges the rows it keeps. The relation
// is only valid while the statement's view of the table is (no insert
// or truncate in between); no operator mutates its input, and the
// capacity is clipped so an append cannot reach the table's storage.
func ScanInPlace(ctx context.Context, st *Stats, tbl *storage.Table, corr string) (*Relation, error) {
	if err := fault.Point(FaultScan); err != nil {
		return nil, err
	}
	g := newGuard(ctx, st)
	if err := g.step(); err != nil {
		return nil, err
	}
	cols := qualifiedCols(tbl, corr)
	rows := tbl.Rows()
	st.RowsScanned += int64(len(rows))
	return &Relation{Cols: cols, Rows: rows[:len(rows):len(rows)]}, nil
}

// bindRow loads a relation row into an environment's column map.
func bindRow(env *eval.Env, cols []string, row value.Row) {
	for i, c := range cols {
		env.Cols[c] = row[i]
	}
}

// qualifying is the engine's one predicate row loop, shared by the
// materializing, parallel and streaming filters: it appends to out the
// rows keep accepts under the false-interpreted WHERE semantics
// (Unknown rejects), polling g for cancellation per row and, when
// charge is set, charging each kept row to it as materialized.
func (g *guard) qualifying(out, rows []value.Row, keep eval.Pred, charge bool) ([]value.Row, error) {
	for _, row := range rows {
		if err := g.step(); err != nil {
			return nil, err
		}
		t, err := keep(row)
		if err != nil {
			return nil, err
		}
		if !tvl.FalseInterpreted(t) {
			continue
		}
		out = append(out, row)
		if charge {
			if err := g.keep(row); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// Filter returns the rows of rel that satisfy pred under the
// false-interpreted WHERE semantics. envProto supplies host variables,
// outer-block column bindings, the scope that canonicalizes column
// references (nil = literal names), and the subquery evaluators; pred
// is compiled against rel's columns once per call (eval.Compile).
func Filter(ctx context.Context, st *Stats, rel *Relation, pred ast.Expr, envProto *eval.Env) (*Relation, error) {
	if pred == nil {
		return rel, nil
	}
	if err := fault.Point(FaultFilter); err != nil {
		return nil, err
	}
	if w, ok := shouldParallel(len(rel.Rows)); ok && !ast.HasExists(pred) {
		// Subquery-bearing predicates stay serial: their evaluation
		// callbacks recurse into shared executor state.
		return ParallelFilter(ctx, st, rel, pred, envProto, w)
	}
	g := newGuard(ctx, st)
	rows, err := g.qualifying(nil, rel.Rows, eval.Compile(pred, rel.Cols, envProto), true)
	if err != nil {
		return nil, err
	}
	return &Relation{Cols: rel.Cols, Rows: rows}, g.finish()
}

// Product computes the extended Cartesian product l × r.
func Product(ctx context.Context, st *Stats, l, r *Relation) (*Relation, error) {
	g := newGuard(ctx, st)
	out := &Relation{Cols: append(append([]string{}, l.Cols...), r.Cols...)}
	// Cap the pre-allocation: sizing for the full cross product would
	// commit its entire footprint before cancellation or the budget
	// gets a chance to stop the query.
	if n := len(l.Rows) * len(r.Rows); n > 0 && n <= 1<<16 {
		out.Rows = make([]value.Row, 0, n)
	}
	for _, lr := range l.Rows {
		for _, rr := range r.Rows {
			if err := g.step(); err != nil {
				return nil, err
			}
			st.JoinPairs++
			row := make(value.Row, 0, len(lr)+len(rr))
			row = append(row, lr...)
			row = append(row, rr...)
			out.Rows = append(out.Rows, row)
			if err := g.keep(row); err != nil {
				return nil, err
			}
		}
	}
	return out, g.finish()
}

// NestedLoopJoin joins l and r with an arbitrary predicate, examining
// every pair.
func NestedLoopJoin(ctx context.Context, st *Stats, l, r *Relation, pred ast.Expr, envProto *eval.Env) (*Relation, error) {
	g := newGuard(ctx, st)
	out := &Relation{Cols: append(append([]string{}, l.Cols...), r.Cols...)}
	env := &eval.Env{
		Cols:   make(map[string]value.Value, len(out.Cols)+len(envProto.Cols)),
		Hosts:  envProto.Hosts,
		Exists: envProto.Exists,
	}
	for k, v := range envProto.Cols {
		env.Cols[k] = v
	}
	for _, lr := range l.Rows {
		bindRow(env, l.Cols, lr)
		for _, rr := range r.Rows {
			if err := g.step(); err != nil {
				return nil, err
			}
			st.JoinPairs++
			bindRow(env, r.Cols, rr)
			ok, err := eval.Qualifies(pred, env)
			if err != nil {
				return nil, err
			}
			if ok {
				row := make(value.Row, 0, len(lr)+len(rr))
				row = append(row, lr...)
				row = append(row, rr...)
				out.Rows = append(out.Rows, row)
				if err := g.keep(row); err != nil {
					return nil, err
				}
			}
		}
	}
	return out, g.finish()
}

// HashJoin equi-joins l and r on lKeys = rKeys (by column name).
// WHERE-clause equality semantics apply: rows with NULL join keys
// never match.
func HashJoin(ctx context.Context, st *Stats, l, r *Relation, lKeys, rKeys []string) (*Relation, error) {
	if err := fault.Point(FaultHashBuild); err != nil {
		return nil, err
	}
	if w, ok := shouldParallel(len(l.Rows) + len(r.Rows)); ok {
		return ParallelHashJoin(ctx, st, l, r, lKeys, rKeys, w)
	}
	li, err := l.colIndexes(lKeys)
	if err != nil {
		return nil, err
	}
	ri, err := r.colIndexes(rKeys)
	if err != nil {
		return nil, err
	}
	g := newGuard(ctx, st)
	out := &Relation{Cols: append(append([]string{}, l.Cols...), r.Cols...)}

	// Build on the right input, probe the left. The build side is fixed
	// (not chosen by size) so that serial, parallel, and streaming
	// execution emit identical row orders: a streaming join cannot know
	// its inputs' sizes up front, so every path builds right.
	ht := newRowTable(len(r.Rows))
	key := make(value.Row, len(ri))
	for _, row := range r.Rows {
		if err := g.step(); err != nil {
			return nil, err
		}
		if hasNullAt(row, ri) {
			continue
		}
		for i, c := range ri {
			key[i] = row[c]
		}
		ht.insert(hashRow(key), row)
		st.HashInserts++
		if err := g.keep(row); err != nil {
			return nil, err
		}
	}
	if err := fault.Point(FaultHashProbe); err != nil {
		return nil, err
	}
	pkey := make(value.Row, len(li))
	arena := rowArena{width: len(l.Cols) + len(r.Cols)}
	for _, prow := range l.Rows {
		if err := g.step(); err != nil {
			return nil, err
		}
		if hasNullAt(prow, li) {
			continue
		}
		for i, c := range li {
			pkey[i] = prow[c]
		}
		st.HashProbes++
		for e := ht.find(hashRow(pkey)); e != rtNone; e = ht.entries[e].next {
			brow := ht.entries[e].row
			st.JoinPairs++
			if !equalAt(prow, li, brow, ri, st) {
				continue
			}
			row := arena.next()
			n := copy(row, prow)
			copy(row[n:], brow)
			out.Rows = append(out.Rows, row)
			if err := g.keep(row); err != nil {
				return nil, err
			}
		}
	}
	return out, g.finish()
}

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

// MergeJoin equi-joins two relations by sorting both on their join
// keys and merging. NULL keys never match (WHERE semantics).
func MergeJoin(ctx context.Context, st *Stats, l, r *Relation, lKeys, rKeys []string) (*Relation, error) {
	if err := fault.Point(FaultSort); err != nil {
		return nil, err
	}
	li, err := l.colIndexes(lKeys)
	if err != nil {
		return nil, err
	}
	ri, err := r.colIndexes(rKeys)
	if err != nil {
		return nil, err
	}
	g := newGuard(ctx, st)
	ls := append([]value.Row(nil), l.Rows...)
	rs := append([]value.Row(nil), r.Rows...)
	// The sort buffers are materializations: charge them up front.
	if err := g.keepN(ls); err != nil {
		return nil, err
	}
	if err := g.keepN(rs); err != nil {
		return nil, err
	}
	SortRowsOn(st, ls, li)
	SortRowsOn(st, rs, ri)
	out := &Relation{Cols: append(append([]string{}, l.Cols...), r.Cols...)}
	i, j := 0, 0
	for i < len(ls) && j < len(rs) {
		if err := g.step(); err != nil {
			return nil, err
		}
		c := compareAt(ls[i], li, rs[j], ri, st)
		switch {
		case c < 0:
			i++
		case c > 0:
			j++
		default:
			if hasNullAt(ls[i], li) {
				// NULL keys sort together but never join.
				i++
				continue
			}
			// Find the run of equal keys on each side.
			i2 := i + 1
			for i2 < len(ls) && compareAt(ls[i2], li, ls[i], li, st) == 0 {
				i2++
			}
			j2 := j + 1
			for j2 < len(rs) && compareAt(rs[j2], ri, rs[j], ri, st) == 0 {
				j2++
			}
			for x := i; x < i2; x++ {
				for y := j; y < j2; y++ {
					st.JoinPairs++
					row := make(value.Row, 0, len(ls[x])+len(rs[y]))
					row = append(row, ls[x]...)
					row = append(row, rs[y]...)
					out.Rows = append(out.Rows, row)
					if err := g.keep(row); err != nil {
						return nil, err
					}
				}
			}
			i, j = i2, j2
		}
	}
	return out, g.finish()
}

func compareAt(a value.Row, ai []int, b value.Row, bi []int, st *Stats) int {
	for k := range ai {
		st.Comparisons++
		if c := value.OrderCompare(a[ai[k]], b[bi[k]]); c != 0 {
			return c
		}
	}
	return 0
}

// SortRowsOn sorts rows by the given key columns (then by all columns
// as a tiebreak for determinism), counting comparisons and the sort.
func SortRowsOn(st *Stats, rows []value.Row, keyIdx []int) {
	st.SortRuns++
	st.RowsSorted += int64(len(rows))
	sortRowsBy(rows, func(a, b value.Row) int {
		for _, i := range keyIdx {
			st.Comparisons++
			if c := value.OrderCompare(a[i], b[i]); c != 0 {
				return c
			}
		}
		return 0
	})
}

// Project projects rel onto the named columns, retaining duplicates.
func Project(ctx context.Context, st *Stats, rel *Relation, cols []string) (*Relation, error) {
	if w, ok := shouldParallel(len(rel.Rows)); ok {
		return ParallelProject(ctx, st, rel, cols, w)
	}
	idx, err := rel.colIndexes(cols)
	if err != nil {
		return nil, err
	}
	g := newGuard(ctx, st)
	out := &Relation{Cols: append([]string(nil), cols...)}
	out.Rows = make([]value.Row, len(rel.Rows))
	for ri, row := range rel.Rows {
		if err := g.step(); err != nil {
			return nil, err
		}
		nr := make(value.Row, len(idx))
		for i, c := range idx {
			nr[i] = row[c]
		}
		out.Rows[ri] = nr
		if err := g.keep(nr); err != nil {
			return nil, err
		}
	}
	return out, g.finish()
}

// DistinctSort removes duplicate rows (≐ semantics: NULL ≐ NULL) by
// sorting the whole relation and collapsing runs — the expensive
// operation the paper's optimization avoids.
func DistinctSort(ctx context.Context, st *Stats, rel *Relation) (*Relation, error) {
	if err := fault.Point(FaultDistinct); err != nil {
		return nil, err
	}
	g := newGuard(ctx, st)
	rows := append([]value.Row(nil), rel.Rows...)
	if err := g.keepN(rows); err != nil {
		return nil, err
	}
	st.SortRuns++
	st.RowsSorted += int64(len(rows))
	sortRowsBy(rows, func(a, b value.Row) int {
		st.Comparisons++
		return value.OrderCompareRows(a, b)
	})
	out := &Relation{Cols: rel.Cols}
	for i, row := range rows {
		if err := g.step(); err != nil {
			return nil, err
		}
		if i > 0 {
			st.Comparisons++
			if value.NullEqRows(rows[i-1], row) {
				continue
			}
		}
		out.Rows = append(out.Rows, row)
	}
	return out, g.finish()
}

// DistinctHash removes duplicate rows (≐ semantics) with a hash table.
func DistinctHash(ctx context.Context, st *Stats, rel *Relation) (*Relation, error) {
	if err := fault.Point(FaultDistinct); err != nil {
		return nil, err
	}
	if w, ok := shouldParallel(len(rel.Rows)); ok {
		return ParallelDistinctHash(ctx, st, rel, w)
	}
	g := newGuard(ctx, st)
	seen := newRowTable(len(rel.Rows))
	out := &Relation{Cols: rel.Cols}
	for _, row := range rel.Rows {
		if err := g.step(); err != nil {
			return nil, err
		}
		h := hashRow(row)
		st.HashProbes++
		dup := false
		for e := seen.find(h); e != rtNone; e = seen.entries[e].next {
			st.Comparisons++
			if value.NullEqRows(seen.entries[e].row, row) {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		seen.insert(h, row)
		st.HashInserts++
		out.Rows = append(out.Rows, row)
		if err := g.keep(row); err != nil {
			return nil, err
		}
	}
	return out, g.finish()
}

// SemiJoinExists filters l to rows for which the EXISTS-style probe
// into r succeeds: some row of r satisfies pred in the combined
// environment. This is the naive nested-loops subquery strategy.
func SemiJoinExists(ctx context.Context, st *Stats, l, r *Relation, pred ast.Expr, envProto *eval.Env) (*Relation, error) {
	g := newGuard(ctx, st)
	out := &Relation{Cols: l.Cols}
	env := &eval.Env{
		Cols:   make(map[string]value.Value, len(l.Cols)+len(r.Cols)+len(envProto.Cols)),
		Hosts:  envProto.Hosts,
		Exists: envProto.Exists,
	}
	for k, v := range envProto.Cols {
		env.Cols[k] = v
	}
	for _, lr := range l.Rows {
		bindRow(env, l.Cols, lr)
		st.SubqueryRuns++
		matched := false
		for _, rr := range r.Rows {
			if err := g.step(); err != nil {
				return nil, err
			}
			st.JoinPairs++
			bindRow(env, r.Cols, rr)
			ok, err := eval.Qualifies(pred, env)
			if err != nil {
				return nil, err
			}
			if ok {
				matched = true
				break
			}
		}
		if matched {
			out.Rows = append(out.Rows, lr)
			if err := g.keep(lr); err != nil {
				return nil, err
			}
		}
	}
	return out, g.finish()
}

// SemiJoinHash filters l to rows whose key appears in r (equi-probe
// semantics; NULL keys never match). The hash table on r is built
// once — the rewritten strategy Theorem 2 enables.
func SemiJoinHash(ctx context.Context, st *Stats, l, r *Relation, lKeys, rKeys []string) (*Relation, error) {
	if err := fault.Point(FaultSemiBuild); err != nil {
		return nil, err
	}
	if w, ok := shouldParallel(len(l.Rows) + len(r.Rows)); ok {
		return ParallelSemiJoinHash(ctx, st, l, r, lKeys, rKeys, w)
	}
	li, err := l.colIndexes(lKeys)
	if err != nil {
		return nil, err
	}
	ri, err := r.colIndexes(rKeys)
	if err != nil {
		return nil, err
	}
	g := newGuard(ctx, st)
	ht := make(map[uint64][]value.Row, len(r.Rows))
	key := make(value.Row, len(ri))
	for _, row := range r.Rows {
		if err := g.step(); err != nil {
			return nil, err
		}
		if hasNullAt(row, ri) {
			continue
		}
		for i, c := range ri {
			key[i] = row[c]
		}
		h := hashRow(key)
		ht[h] = append(ht[h], row)
		st.HashInserts++
		if err := g.keep(row); err != nil {
			return nil, err
		}
	}
	out := &Relation{Cols: l.Cols}
	pkey := make(value.Row, len(li))
	for _, lr := range l.Rows {
		if err := g.step(); err != nil {
			return nil, err
		}
		if hasNullAt(lr, li) {
			continue
		}
		for i, c := range li {
			pkey[i] = lr[c]
		}
		st.HashProbes++
		for _, rr := range ht[hashRow(pkey)] {
			if equalAt(lr, li, rr, ri, st) {
				out.Rows = append(out.Rows, lr)
				if err := g.keep(lr); err != nil {
					return nil, err
				}
				break
			}
		}
	}
	return out, g.finish()
}

// setOpCounts builds a ≐-keyed multiset counter for a relation,
// charging the hash-table materialization to g.
func setOpCounts(g *guard, st *Stats, rel *Relation) (map[uint64][]countedRow, error) {
	counts := make(map[uint64][]countedRow, len(rel.Rows))
	for _, row := range rel.Rows {
		if err := g.step(); err != nil {
			return nil, err
		}
		h := hashRow(row)
		st.HashInserts++
		bucket := counts[h]
		found := false
		for i := range bucket {
			st.Comparisons++
			if value.NullEqRows(bucket[i].row, row) {
				bucket[i].n++
				found = true
				break
			}
		}
		if !found {
			bucket = append(bucket, countedRow{row: row, n: 1})
			if err := g.keep(row); err != nil {
				return nil, err
			}
		}
		counts[h] = bucket
	}
	return counts, nil
}

// Intersect computes l ∩ r. With all=false duplicates are eliminated
// (INTERSECT); with all=true each row appears min(j,k) times
// (INTERSECT ALL). Tuple equivalence is ≐: NULL columns match NULL.
func Intersect(ctx context.Context, st *Stats, l, r *Relation, all bool) (*Relation, error) {
	if err := fault.Point(FaultSetOp); err != nil {
		return nil, err
	}
	g := newGuard(ctx, st)
	rc, err := setOpCounts(&g, st, r)
	if err != nil {
		return nil, err
	}
	out := &Relation{Cols: l.Cols}
	emitted := make(map[uint64][]countedRow)
	for _, row := range l.Rows {
		if err := g.step(); err != nil {
			return nil, err
		}
		h := hashRow(row)
		st.HashProbes++
		bucket := rc[h]
		avail := 0
		bi := -1
		for i := range bucket {
			st.Comparisons++
			if value.NullEqRows(bucket[i].row, row) {
				avail = bucket[i].n
				bi = i
				break
			}
		}
		if avail <= 0 {
			continue
		}
		if all {
			// Emit up to min(j, k): consume one match per emission.
			bucket[bi].n--
			out.Rows = append(out.Rows, row)
			if err := g.keep(row); err != nil {
				return nil, err
			}
			continue
		}
		// DISTINCT: emit once per distinct row.
		eb := emitted[h]
		dup := false
		for i := range eb {
			st.Comparisons++
			if value.NullEqRows(eb[i].row, row) {
				dup = true
				break
			}
		}
		if !dup {
			emitted[h] = append(eb, countedRow{row: row, n: 1})
			out.Rows = append(out.Rows, row)
			if err := g.keep(row); err != nil {
				return nil, err
			}
		}
	}
	return out, g.finish()
}

// Except computes l − r. With all=false the result is the distinct
// rows of l not occurring in r (EXCEPT); with all=true each row
// appears max(j−k, 0) times (EXCEPT ALL).
func Except(ctx context.Context, st *Stats, l, r *Relation, all bool) (*Relation, error) {
	if err := fault.Point(FaultSetOp); err != nil {
		return nil, err
	}
	g := newGuard(ctx, st)
	rc, err := setOpCounts(&g, st, r)
	if err != nil {
		return nil, err
	}
	out := &Relation{Cols: l.Cols}
	emitted := make(map[uint64][]countedRow)
	for _, row := range l.Rows {
		if err := g.step(); err != nil {
			return nil, err
		}
		h := hashRow(row)
		st.HashProbes++
		bucket := rc[h]
		bi := -1
		for i := range bucket {
			st.Comparisons++
			if value.NullEqRows(bucket[i].row, row) {
				bi = i
				break
			}
		}
		if all {
			if bi >= 0 && bucket[bi].n > 0 {
				bucket[bi].n-- // cancelled by one occurrence in r
				continue
			}
			out.Rows = append(out.Rows, row)
			if err := g.keep(row); err != nil {
				return nil, err
			}
			continue
		}
		// DISTINCT: emit rows of l absent from r, once each.
		if bi >= 0 {
			continue
		}
		eb := emitted[h]
		dup := false
		for i := range eb {
			st.Comparisons++
			if value.NullEqRows(eb[i].row, row) {
				dup = true
				break
			}
		}
		if !dup {
			emitted[h] = append(eb, countedRow{row: row, n: 1})
			out.Rows = append(out.Rows, row)
			if err := g.keep(row); err != nil {
				return nil, err
			}
		}
	}
	return out, g.finish()
}

// IndexScanEq materializes the rows of tbl whose index prefix equals
// key, qualified by corr. The lookup replaces a full scan: only the
// matching rows are counted as scanned.
func IndexScanEq(ctx context.Context, st *Stats, tbl *storage.Table, corr string, ix *storage.OrderedIndex, key value.Row) (*Relation, error) {
	ords, err := ix.Lookup(key)
	if err != nil {
		return nil, err
	}
	st.IndexSeeks++
	return materialize(ctx, st, tbl, corr, ords)
}

// IndexScanRange materializes the rows of tbl whose first index
// column lies in [lo, hi] (nil bound = open end).
func IndexScanRange(ctx context.Context, st *Stats, tbl *storage.Table, corr string, ix *storage.OrderedIndex, lo, hi *value.Value) (*Relation, error) {
	ords := ix.Range(lo, hi)
	st.IndexSeeks++
	return materialize(ctx, st, tbl, corr, ords)
}

func materialize(ctx context.Context, st *Stats, tbl *storage.Table, corr string, ords []int) (*Relation, error) {
	g := newGuard(ctx, st)
	cols := qualifiedCols(tbl, corr)
	out := &Relation{Cols: cols, Rows: make([]value.Row, len(ords))}
	for i, ri := range ords {
		if err := g.step(); err != nil {
			return nil, err
		}
		out.Rows[i] = tbl.Row(ri)
		if err := g.keep(out.Rows[i]); err != nil {
			return nil, err
		}
	}
	st.RowsScanned += int64(len(ords))
	return out, g.finish()
}
