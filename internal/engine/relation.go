package engine

import (
	"fmt"
	"strings"

	"uniqopt/internal/value"
)

// Relation is a materialized intermediate result: an ordered multiset
// of rows with canonical column names ("CORRELATION.COLUMN").
type Relation struct {
	Cols []string
	Rows []value.Row
}

// NewRelation creates an empty relation with the given columns.
func NewRelation(cols ...string) *Relation {
	return &Relation{Cols: cols}
}

// ColumnIndex returns the position of the named column, or -1. Both
// exact canonical matches and bare-name suffix matches are accepted so
// callers can address columns the way queries do.
func (r *Relation) ColumnIndex(name string) int {
	return columnIndexIn(r.Cols, name)
}

// columnIndexIn is ColumnIndex over a bare column-name list, shared
// with the streaming iterators (which carry column names without a
// materialized Relation).
func columnIndexIn(cols []string, name string) int {
	for i, c := range cols {
		if c == name {
			return i
		}
	}
	// Fall back to unqualified match if unambiguous.
	found := -1
	for i, c := range cols {
		if idx := strings.IndexByte(c, '.'); idx >= 0 && c[idx+1:] == name {
			if found >= 0 {
				return -1 // ambiguous
			}
			found = i
		}
	}
	return found
}

// Len reports the number of rows.
func (r *Relation) Len() int { return len(r.Rows) }

// Clone returns a deep copy of the relation.
func (r *Relation) Clone() *Relation {
	out := &Relation{Cols: append([]string(nil), r.Cols...)}
	out.Rows = make([]value.Row, len(r.Rows))
	for i, row := range r.Rows {
		out.Rows[i] = row.Clone()
	}
	return out
}

// String renders the relation as a small table for diagnostics.
func (r *Relation) String() string {
	var sb strings.Builder
	sb.WriteString(strings.Join(r.Cols, " | "))
	sb.WriteByte('\n')
	for _, row := range r.Rows {
		sb.WriteString(row.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}

// MultisetEqual reports whether two relations contain the same rows
// with the same multiplicities under ≐ row equivalence, ignoring
// order. Column names are not compared; arity is.
func MultisetEqual(a, b *Relation) bool {
	if len(a.Cols) != len(b.Cols) || len(a.Rows) != len(b.Rows) {
		return false
	}
	counts := make(map[uint64][]countedRow, len(a.Rows))
	for _, row := range a.Rows {
		h := hashRow(row)
		bucket := counts[h]
		found := false
		for i := range bucket {
			if value.NullEqRows(bucket[i].row, row) {
				bucket[i].n++
				found = true
				break
			}
		}
		if !found {
			bucket = append(bucket, countedRow{row: row, n: 1})
		}
		counts[h] = bucket
	}
	for _, row := range b.Rows {
		h := hashRow(row)
		bucket := counts[h]
		found := false
		for i := range bucket {
			if value.NullEqRows(bucket[i].row, row) {
				if bucket[i].n == 0 {
					return false
				}
				bucket[i].n--
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

type countedRow struct {
	row value.Row
	n   int
}

// SortRows sorts the relation's rows in place by the total order
// OrderCompareRows (NULL first). Used to canonicalize results for
// comparison in tests.
func (r *Relation) SortRows() {
	sortRowsBy(r.Rows, func(a, b value.Row) int { return value.OrderCompareRows(a, b) })
}

// sortCounted sorts rows in place by OrderCompareRows, counting one sort
// run, its rows and every comparison in st: the sort of every operator
// that sorts.
func sortCounted(st *Stats, rows []value.Row) {
	st.SortRuns++
	st.RowsSorted += int64(len(rows))
	sortRowsBy(rows, func(a, b value.Row) int {
		st.Comparisons++
		return value.OrderCompareRows(a, b)
	})
}

// sortRowsBy is a simple merge sort counting nothing; operator-level
// sorts count inside the comparison function they pass.
func sortRowsBy(rows []value.Row, cmp func(a, b value.Row) int) {
	if len(rows) < 2 {
		return
	}
	tmp := make([]value.Row, len(rows))
	var ms func(lo, hi int)
	ms = func(lo, hi int) {
		if hi-lo < 2 {
			return
		}
		mid := (lo + hi) / 2
		ms(lo, mid)
		ms(mid, hi)
		i, j, k := lo, mid, lo
		for i < mid && j < hi {
			if cmp(rows[i], rows[j]) <= 0 {
				tmp[k] = rows[i]
				i++
			} else {
				tmp[k] = rows[j]
				j++
			}
			k++
		}
		for i < mid {
			tmp[k] = rows[i]
			i++
			k++
		}
		for j < hi {
			tmp[k] = rows[j]
			j++
			k++
		}
		copy(rows[lo:hi], tmp[lo:hi])
	}
	ms(0, len(rows))
}

// colIndexes resolves every name to its ordinal, or reports the first
// unresolved column as an error. Operators propagate this through the
// lifecycle containment path instead of panicking.
func (r *Relation) colIndexes(names []string) ([]int, error) {
	return ColIndexes(r.Cols, names)
}

// ColIndexes resolves names against a column list — what a planner does
// once per statement shape to hand the iterator constructors ordinals.
func ColIndexes(cols []string, names []string) ([]int, error) {
	out := make([]int, len(names))
	for i, n := range names {
		ci := columnIndexIn(cols, n)
		if ci < 0 {
			return nil, fmt.Errorf("engine: relation has no column %s (cols: %v)", n, cols)
		}
		out[i] = ci
	}
	return out, nil
}
