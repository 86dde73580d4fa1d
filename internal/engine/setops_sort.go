package engine

import (
	"context"

	"uniqopt/internal/fault"
	"uniqopt/internal/value"
)

// IntersectSort implements INTERSECT [ALL] the way the paper says
// typical optimizers do (§5.3): evaluate each operand, sort each
// result, and merge. Tuple equivalence is ≐ (NULL ≐ NULL). This is
// the baseline strategy whose two sorts the Theorem 3 rewrite avoids.
func IntersectSort(ctx context.Context, st *Stats, l, r *Relation, all bool) (*Relation, error) {
	return sortMerge(ctx, st, l, r, all, intersectSorted)
}

// ExceptSort implements EXCEPT [ALL] by sorting and merging, with the
// same ≐ semantics: EXCEPT emits each left-distinct row absent from
// the right once; EXCEPT ALL emits max(j−k, 0) occurrences.
func ExceptSort(ctx context.Context, st *Stats, l, r *Relation, all bool) (*Relation, error) {
	return sortMerge(ctx, st, l, r, all, exceptSorted)
}

// sortMerge sorts a copy of each relation's rows, charging the copies
// to a lifecycle guard, and merges them.
func sortMerge(ctx context.Context, st *Stats, l, r *Relation, all bool, merge mergeFunc) (*Relation, error) {
	if err := fault.Point(FaultSort); err != nil {
		return nil, err
	}
	g := newGuard(ctx, st)
	var sorted [2][]value.Row
	for k, rel := range [...]*Relation{l, r} {
		sorted[k] = append([]value.Row(nil), rel.Rows...)
		if err := g.keepN(sorted[k]); err != nil {
			return nil, err
		}
		sortCounted(st, sorted[k])
	}
	rows, err := merge(st, &g, sorted[0], sorted[1], all)
	if err != nil {
		return nil, err
	}
	return &Relation{Cols: l.Cols, Rows: rows}, g.finish()
}

// keeper is what a merge polls cancellation through and charges its
// output rows to: a relation operator's guard, or the set-operation
// iterator's own streamGuard.
type keeper interface {
	step() error
	keep(row value.Row) error
}

// mergeFunc merges two operands sorted by OrderCompareRows, charging
// every output row to g.
type mergeFunc func(st *Stats, g keeper, ls, rs []value.Row, all bool) ([]value.Row, error)

// intersectSorted merges ls INTERSECT [ALL] rs.
func intersectSorted(st *Stats, g keeper, ls, rs []value.Row, all bool) ([]value.Row, error) {
	var out []value.Row
	i, j := 0, 0
	for i < len(ls) && j < len(rs) {
		if err := g.step(); err != nil {
			return nil, err
		}
		st.Comparisons++
		c := value.OrderCompareRows(ls[i], rs[j])
		switch {
		case c < 0:
			i++
		case c > 0:
			j++
		default:
			// Runs of equal rows on both sides.
			i2 := runEnd(st, ls, i)
			j2 := runEnd(st, rs, j)
			n := 1
			if all {
				n = min(i2-i, j2-j)
			}
			var err error
			if out, err = appendKept(g, out, ls[i], n); err != nil {
				return nil, err
			}
			i, j = i2, j2
		}
	}
	return out, nil
}

// exceptSorted merges ls EXCEPT [ALL] rs.
func exceptSorted(st *Stats, g keeper, ls, rs []value.Row, all bool) ([]value.Row, error) {
	var out []value.Row
	i, j := 0, 0
	for i < len(ls) {
		if err := g.step(); err != nil {
			return nil, err
		}
		i2 := runEnd(st, ls, i)
		// Advance the right side to the first run not below ls[i].
		for j < len(rs) {
			st.Comparisons++
			if value.OrderCompareRows(rs[j], ls[i]) >= 0 {
				break
			}
			j++
		}
		matched := 0
		if j < len(rs) {
			st.Comparisons++
			if value.OrderCompareRows(rs[j], ls[i]) == 0 {
				j2 := runEnd(st, rs, j)
				matched = j2 - j
				j = j2
			}
		}
		n := (i2 - i) - matched
		if !all {
			n = 0
			if matched == 0 {
				n = 1
			}
		}
		var err error
		if out, err = appendKept(g, out, ls[i], n); err != nil {
			return nil, err
		}
		i = i2
	}
	return out, nil
}

// appendKept appends n copies of row to out, charging each to g.
func appendKept(g keeper, out []value.Row, row value.Row, n int) ([]value.Row, error) {
	for k := 0; k < n; k++ {
		out = append(out, row)
		if err := g.keep(row); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// runEnd returns the end index of the run of ≐-equal rows starting at i.
func runEnd(st *Stats, rows []value.Row, i int) int {
	j := i + 1
	for j < len(rows) {
		st.Comparisons++
		if !value.NullEqRows(rows[j], rows[i]) {
			break
		}
		j++
	}
	return j
}
