// Package value is a golden-fixture stand-in for the real
// uniqopt/internal/value, providing just the Row type the stand-in
// engine's Relation holds.
package value

// Value is one SQL value.
type Value struct {
	I int64
}

// Row is an ordered tuple of values. Rows are shared by reference
// across operators and partitions.
type Row []Value

// Clone deep-copies the row.
func (r Row) Clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}
