// Package value implements the typed SQL value system used by the
// catalog, the execution engine, and the uniqueness analyzer.
//
// Two distinct notions of equality coexist in SQL2, and the distinction
// is the technical heart of Paulley & Larson's paper:
//
//   - WHERE-clause comparison ("=", "<", ...) follows three-valued
//     logic: any comparison involving NULL yields Unknown (tvl.Unknown).
//     Implemented by Compare and the Eq/Lt/... helpers.
//   - Duplicate elimination, GROUP BY, ORDER BY and key enforcement use
//     the null-equivalence operator ≐ of the paper's Table 2:
//     (X IS NULL AND Y IS NULL) OR X = Y. Implemented by NullEq and
//     OrderCompare (which sorts NULL first).
package value

import (
	"fmt"
	"strconv"
	"strings"

	"uniqopt/internal/tvl"
)

// Kind enumerates the SQL types the engine supports.
type Kind uint8

// Supported value kinds. KindNull is the type of the NULL literal
// before any column context assigns it a type.
const (
	KindNull Kind = iota
	KindInt
	KindString
	KindBool
)

// String returns the SQL-ish name of k.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindInt:
		return "INTEGER"
	case KindString:
		return "VARCHAR"
	case KindBool:
		return "BOOLEAN"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Value is a single SQL value: an int64, a string, a bool, or NULL.
// The zero Value is NULL.
type Value struct {
	kind Kind
	i    int64
	s    string
	b    bool
}

// Null is the SQL NULL value.
var Null = Value{}

// Int returns an integer value.
func Int(v int64) Value { return Value{kind: KindInt, i: v} }

// String_ returns a string value. (Named with a trailing underscore to
// avoid colliding with the fmt.Stringer method.)
func String_(v string) Value { return Value{kind: KindString, s: v} }

// Bool returns a boolean value.
func Bool(v bool) Value { return Value{kind: KindBool, b: v} }

// Kind reports the kind of v.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether v is the SQL NULL.
func (v Value) IsNull() bool { return v.kind == KindNull }

// AsInt returns the integer payload; it panics if v is not an integer.
func (v Value) AsInt() int64 {
	if v.kind != KindInt {
		panic(fmt.Sprintf("value: AsInt on %s", v.kind))
	}
	return v.i
}

// AsString returns the string payload; it panics if v is not a string.
func (v Value) AsString() string {
	if v.kind != KindString {
		panic(fmt.Sprintf("value: AsString on %s", v.kind))
	}
	return v.s
}

// AsBool returns the boolean payload; it panics if v is not a boolean.
func (v Value) AsBool() bool {
	if v.kind != KindBool {
		panic(fmt.Sprintf("value: AsBool on %s", v.kind))
	}
	return v.b
}

// Int reads the integer payload where the value lies — a row cell, say —
// without copying the Value; ok is false, and nothing panics, when v is
// not an integer (NULL included). The per-row comparison kernels of
// eval.Compile are built on it and on Str.
func (v *Value) Int() (i int64, ok bool) { return v.i, v.kind == KindInt }

// Str is Int for the string payload.
func (v *Value) Str() (s string, ok bool) { return v.s, v.kind == KindString }

// String renders v as a SQL literal.
func (v Value) String() string {
	switch v.kind {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(v.i, 10)
	case KindString:
		return "'" + strings.ReplaceAll(v.s, "'", "''") + "'"
	case KindBool:
		if v.b {
			return "TRUE"
		}
		return "FALSE"
	default:
		return fmt.Sprintf("Value(kind=%d)", uint8(v.kind))
	}
}

// Comparable reports whether two kinds may be compared in a WHERE
// clause. NULL is comparable with everything (the result is Unknown).
func Comparable(a, b Kind) bool {
	return a == KindNull || b == KindNull || a == b
}

// Compare compares two non-NULL values of the same kind and returns
// -1, 0, or +1. It panics on NULL or mismatched kinds; callers must
// route NULLs through the 3VL helpers or NullEq/OrderCompare.
func Compare(a, b Value) int {
	if a.IsNull() || b.IsNull() {
		panic("value: Compare on NULL; use Eq/OrderCompare")
	}
	if a.kind != b.kind {
		panic(fmt.Sprintf("value: Compare kind mismatch %s vs %s", a.kind, b.kind))
	}
	switch a.kind {
	case KindInt:
		switch {
		case a.i < b.i:
			return -1
		case a.i > b.i:
			return 1
		}
		return 0
	case KindString:
		return strings.Compare(a.s, b.s)
	case KindBool:
		switch {
		case !a.b && b.b:
			return -1
		case a.b && !b.b:
			return 1
		}
		return 0
	default:
		panic(fmt.Sprintf("value: Compare on %s", a.kind))
	}
}

// cmp3 runs a comparison under 3VL: NULL operands yield Unknown.
func cmp3(a, b Value, ok func(int) bool) tvl.Truth {
	if a.IsNull() || b.IsNull() {
		return tvl.Unknown
	}
	return tvl.Of(ok(Compare(a, b)))
}

// Eq is WHERE-clause equality under 3VL.
func Eq(a, b Value) tvl.Truth { return cmp3(a, b, func(c int) bool { return c == 0 }) }

// Ne is WHERE-clause inequality under 3VL.
func Ne(a, b Value) tvl.Truth { return cmp3(a, b, func(c int) bool { return c != 0 }) }

// Lt is WHERE-clause less-than under 3VL.
func Lt(a, b Value) tvl.Truth { return cmp3(a, b, func(c int) bool { return c < 0 }) }

// Le is WHERE-clause less-or-equal under 3VL.
func Le(a, b Value) tvl.Truth { return cmp3(a, b, func(c int) bool { return c <= 0 }) }

// Gt is WHERE-clause greater-than under 3VL.
func Gt(a, b Value) tvl.Truth { return cmp3(a, b, func(c int) bool { return c > 0 }) }

// Ge is WHERE-clause greater-or-equal under 3VL.
func Ge(a, b Value) tvl.Truth { return cmp3(a, b, func(c int) bool { return c >= 0 }) }

// NullEq is the paper's ≐ operator (Table 2):
//
//	(X IS NULL AND Y IS NULL) OR X = Y
//
// It is total (never Unknown) and is the equality used by DISTINCT,
// INTERSECT/EXCEPT, GROUP BY and candidate-key enforcement.
func NullEq(a, b Value) bool {
	if a.IsNull() || b.IsNull() {
		return a.IsNull() && b.IsNull()
	}
	if a.kind != b.kind {
		return false
	}
	return Compare(a, b) == 0
}

// OrderCompare is a total order used by sorting operators: NULL sorts
// before every non-NULL value, and values of different kinds order by
// kind (which only matters for heterogeneous test data).
func OrderCompare(a, b Value) int {
	if a.kind == KindInt && b.kind == KindInt {
		// The common case of every sort and index probe, ahead of the
		// NULL and kind dispatch.
		switch {
		case a.i < b.i:
			return -1
		case a.i > b.i:
			return 1
		}
		return 0
	}
	switch {
	case a.IsNull() && b.IsNull():
		return 0
	case a.IsNull():
		return -1
	case b.IsNull():
		return 1
	}
	if a.kind != b.kind {
		if a.kind < b.kind {
			return -1
		}
		return 1
	}
	return Compare(a, b)
}

// Hash returns a 64-bit hash of v such that NullEq(a,b) implies
// Hash(a)==Hash(b). Used by hash-based duplicate elimination and joins.
func (v Value) Hash() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(b byte) { h = (h ^ uint64(b)) * prime64 }
	mix(byte(v.kind))
	switch v.kind {
	case KindInt:
		u := uint64(v.i)
		for s := 0; s < 64; s += 8 {
			mix(byte(u >> s))
		}
	case KindString:
		for i := 0; i < len(v.s); i++ {
			mix(v.s[i])
		}
	case KindBool:
		if v.b {
			mix(1)
		} else {
			mix(0)
		}
	}
	return h
}

// Row is a tuple of values.
type Row []Value

// Clone returns a copy of r that shares no backing storage.
func (r Row) Clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}

// NullEqRows reports whether two rows are equivalent under ≐ applied
// column-wise — the paper's tuple-equivalence condition (Equation 1).
func NullEqRows(a, b Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !NullEq(a[i], b[i]) {
			return false
		}
	}
	return true
}

// NullEqCols is NullEqRows over the projections of a on acols and b on
// bcols, without building either: constraint checks compare key columns
// where they lie in the rows.
func NullEqCols(a Row, acols []int, b Row, bcols []int) bool {
	if len(acols) != len(bcols) {
		return false
	}
	for i, c := range acols {
		if !NullEq(a[c], b[bcols[i]]) {
			return false
		}
	}
	return true
}

// OrderCompareRows compares rows lexicographically with OrderCompare.
func OrderCompareRows(a, b Row) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if c := OrderCompare(a[i], b[i]); c != 0 {
			return c
		}
	}
	switch {
	case len(a) < len(b):
		return -1
	case len(a) > len(b):
		return 1
	}
	return 0
}

// HashRow hashes a row consistently with NullEqRows.
func HashRow(r Row) uint64 {
	const prime64 = 1099511628211
	h := uint64(14695981039346656037)
	for _, v := range r {
		h = (h ^ v.Hash()) * prime64
	}
	return h
}

// HashCols is HashRow of the projection of r on cols, without building
// it. The two must agree: a key hashed in place is looked up by its
// projection and the other way round.
func HashCols(r Row, cols []int) uint64 {
	const prime64 = 1099511628211
	h := uint64(14695981039346656037)
	for _, c := range cols {
		h = (h ^ r[c].Hash()) * prime64
	}
	return h
}

// String renders the row as a parenthesized tuple of SQL literals.
func (r Row) String() string {
	var sb strings.Builder
	sb.WriteByte('(')
	for i, v := range r {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(v.String())
	}
	sb.WriteByte(')')
	return sb.String()
}
