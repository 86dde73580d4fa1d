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

// The relation-at-a-time operators below are what the reference
// Executor (executor.go) is built from — serial, materializing, the
// semantic oracle the iterator pipelines of stream.go are validated
// against — plus the blocking bodies of the set operations. Each takes
// the query's context and threads it into a lifecycle guard
// (lifecycle.go): cooperative cancellation polls per row, batched
// budget charges at materialization points, and a typed error return
// instead of an internal panic.

// hashRow is the row-hash function used by every hash-based operator.
// It is a variable so tests can substitute a degenerate hash and force
// every row into one bucket/partition, proving the collision fallback
// (row-by-row ≐ comparison on hash match) in all operators.
var hashRow = value.HashRow

// QualifiedCols names tbl's columns as a scan under the correlation
// name corr emits them ("CORR.COLUMN").
func QualifiedCols(tbl *storage.Table, corr string) []string {
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
	cols := QualifiedCols(tbl, corr)
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

// qualifying is the engine's one predicate row loop, shared by the
// reference Filter and the filter iterator: it
// appends to out the rows keep accepts under the false-interpreted
// WHERE semantics (Unknown rejects), polling g for cancellation per row.
func (g *guard) qualifying(out, rows []value.Row, keep eval.Pred) ([]value.Row, error) {
	for _, row := range rows {
		if err := g.step(); err != nil {
			return nil, err
		}
		t, err := keep(row)
		if err != nil {
			return nil, err
		}
		if tvl.FalseInterpreted(t) {
			out = append(out, row)
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
	g := newGuard(ctx, st)
	rows, err := g.qualifying(nil, rel.Rows, eval.Compile(pred, rel.Cols, envProto))
	if err != nil {
		return nil, err
	}
	if err := g.keepN(rows); err != nil {
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

// Project projects rel onto the named columns, retaining duplicates.
func Project(ctx context.Context, st *Stats, rel *Relation, cols []string) (*Relation, error) {
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
