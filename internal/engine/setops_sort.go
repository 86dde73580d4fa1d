package engine

import "uniqopt/internal/value"

// mergeFunc merges two operands sorted by OrderCompareRows, charging
// every output row to the set-operation iterator's streamGuard.
type mergeFunc func(st *Stats, g *streamGuard, ls, rs []value.Row, all bool) ([]value.Row, error)

// intersectSorted merges ls INTERSECT [ALL] rs.
func intersectSorted(st *Stats, g *streamGuard, ls, rs []value.Row, all bool) ([]value.Row, error) {
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
func exceptSorted(st *Stats, g *streamGuard, ls, rs []value.Row, all bool) ([]value.Row, error) {
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

// appendKept appends n copies of row to out, charging each to g; out
// grows through g's scratch.
func appendKept(g *streamGuard, out []value.Row, row value.Row, n int) ([]value.Row, error) {
	for k := 0; k < n; k++ {
		out = g.sc.push(out, row)
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
