// Package valuetest is the tests' one way to ask whether two results
// are the same answer. A value.Value holds its string behind a
// pointer, so reflect.DeepEqual on rows compares where the strings
// lie, not what they say; every test that used to compare rows or
// relations structurally calls Same instead.
package valuetest

import (
	"slices"

	"uniqopt/internal/value"
)

// Same reports whether two results have the same column names and,
// row by row in order, cells equal under ≐ (value.NullEqRows: NULL ≐
// NULL, and values of different kinds are never equal). Callers
// comparing bare rows pass nil for both column lists.
func Same(acols []string, a []value.Row, bcols []string, b []value.Row) bool {
	if !slices.Equal(acols, bcols) || len(a) != len(b) {
		return false
	}
	for i := range a {
		if !value.NullEqRows(a[i], b[i]) {
			return false
		}
	}
	return true
}
