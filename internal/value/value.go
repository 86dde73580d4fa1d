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
	"encoding/binary"
	"fmt"
	"math/bits"
	"strconv"
	"strings"
	"unsafe"

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
//
// A cell is three words. p is the string's bytes and nil for every
// other kind; n is the integer, the string's length, or 0/1 for a
// boolean. p is an unsafe.Pointer rather than a *byte so that
// reflect.DeepEqual compares it as an address and can never
// dereference one byte and call two strings equal; compare values with
// NullEq, rows with NullEqRows.
type Value struct {
	p    unsafe.Pointer
	n    int64
	kind Kind
}

// Null is the SQL NULL value.
var Null = Value{}

// Int returns an integer value.
func Int(v int64) Value { return Value{n: v, kind: KindInt} }

// String_ returns a string value. (Named with a trailing underscore to
// avoid colliding with the fmt.Stringer method.)
func String_(v string) Value {
	return Value{p: unsafe.Pointer(unsafe.StringData(v)), n: int64(len(v)), kind: KindString}
}

// Bool returns a boolean value.
func Bool(v bool) Value {
	if v {
		return Value{n: 1, kind: KindBool}
	}
	return Value{kind: KindBool}
}

// str reads the string payload; v must be a string.
func (v *Value) str() string { return unsafe.String((*byte)(v.p), int(v.n)) }

// Kind reports the kind of v.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether v is the SQL NULL.
func (v Value) IsNull() bool { return v.kind == KindNull }

// AsInt returns the integer payload; it panics if v is not an integer.
func (v Value) AsInt() int64 {
	if v.kind != KindInt {
		panic(fmt.Sprintf("value: AsInt on %s", v.kind))
	}
	return v.n
}

// AsString returns the string payload; it panics if v is not a string.
func (v Value) AsString() string {
	if v.kind != KindString {
		panic(fmt.Sprintf("value: AsString on %s", v.kind))
	}
	return v.str()
}

// AsBool returns the boolean payload; it panics if v is not a boolean.
func (v Value) AsBool() bool {
	if v.kind != KindBool {
		panic(fmt.Sprintf("value: AsBool on %s", v.kind))
	}
	return v.n != 0
}

// Int reads the integer payload where the value lies — a row cell, say —
// without copying the Value; ok is false, and nothing panics, when v is
// not an integer (NULL included). The per-row comparison kernels of
// eval.Program.Arm are built on it and on Str.
func (v *Value) Int() (i int64, ok bool) {
	if v.kind != KindInt {
		return 0, false
	}
	return v.n, true
}

// Str is Int for the string payload.
func (v *Value) Str() (s string, ok bool) {
	if v.kind != KindString {
		return "", false
	}
	return v.str(), true
}

// String renders v as a SQL literal: AppendSQL's bytes.
func (v Value) String() string {
	var buf [32]byte
	return string(v.AppendSQL(buf[:0]))
}

// AppendSQL appends v rendered as a SQL literal to dst and returns the
// extended slice: NULL, an integer in decimal, a string in single quotes
// with each quote doubled, TRUE or FALSE. It is the one spelling of a
// value in SQL text.
func (v Value) AppendSQL(dst []byte) []byte {
	switch v.kind {
	case KindNull:
		return append(dst, "NULL"...)
	case KindInt:
		return strconv.AppendInt(dst, v.n, 10)
	case KindString:
		s := v.str()
		dst = append(dst, '\'')
		for i := strings.IndexByte(s, '\''); i >= 0; i = strings.IndexByte(s, '\'') {
			dst = append(append(dst, s[:i+1]...), '\'')
			s = s[i+1:]
		}
		return append(append(dst, s...), '\'')
	case KindBool:
		if v.n != 0 {
			return append(dst, "TRUE"...)
		}
		return append(dst, "FALSE"...)
	default:
		return fmt.Appendf(dst, "Value(kind=%d)", uint8(v.kind))
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
func Compare(a, b Value) int { return compare(&a, &b) }

// compare, nullEq, orderCompare and hash are Compare, NullEq,
// OrderCompare and Hash on cells where they lie: the row helpers below
// run on them, so that comparing or hashing a row copies no cell out
// of it.
func compare(a, b *Value) int {
	if a.kind == KindNull || b.kind == KindNull {
		panic("value: Compare on NULL; use Eq/OrderCompare")
	}
	if a.kind != b.kind {
		panic(fmt.Sprintf("value: Compare kind mismatch %s vs %s", a.kind, b.kind))
	}
	switch a.kind {
	case KindInt, KindBool: // FALSE is 0 and TRUE is 1
		return compareInt(a.n, b.n)
	case KindString:
		return strings.Compare(a.str(), b.str())
	default:
		panic(fmt.Sprintf("value: Compare on %s", a.kind))
	}
}

func compareInt(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// cmp3 runs a comparison under 3VL: NULL operands yield Unknown.
func cmp3(a, b Value, ok func(int) bool) tvl.Truth {
	if a.IsNull() || b.IsNull() {
		return tvl.Unknown
	}
	return tvl.Of(ok(compare(&a, &b)))
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
func NullEq(a, b Value) bool { return nullEq(&a, &b) }

func nullEq(a, b *Value) bool {
	if a.kind != b.kind {
		return false
	}
	return a.kind == KindNull || compare(a, b) == 0
}

// OrderCompare is a total order used by sorting operators: NULL sorts
// before every non-NULL value, and values of different kinds order by
// kind (which only matters for heterogeneous test data).
func OrderCompare(a, b Value) int { return orderCompare(&a, &b) }

func orderCompare(a, b *Value) int {
	if a.kind == KindInt && b.kind == KindInt {
		// The common case of every sort and index probe, ahead of the
		// NULL and kind dispatch.
		return compareInt(a.n, b.n)
	}
	if a.kind != b.kind {
		// NULL is the least kind, so it sorts first.
		if a.kind < b.kind {
			return -1
		}
		return 1
	}
	if a.kind == KindNull {
		return 0
	}
	return compare(a, b)
}

// Hash returns a 64-bit hash of v such that NullEq(a,b) implies
// Hash(a)==Hash(b). Used by hash-based duplicate elimination and joins.
//
// No hash is ever persisted: the key indexes are rebuilt from the rows
// when a database opens, and the write-ahead log has no hash field. The
// function may therefore change between versions without a format
// change.
func (v Value) Hash() uint64 { return v.hash() }

// The hash of a cell is one finalizer over its payload, seeded by its
// kind so that equal payloads of different kinds spread apart: an
// integer or a boolean is one fmix64, a string is read eight bytes a
// step. kindSeed is odd and has no structure the finalizer could
// cancel.
const (
	kindSeed  = 0x9e3779b97f4a7c15
	hashPrime = 0xff51afd7ed558ccd
)

// fmix64 is MurmurHash3's 64-bit finalizer: every input bit reaches
// every output bit, so a hash table may index by the low bits alone.
func fmix64(k uint64) uint64 {
	k ^= k >> 33
	k *= 0xff51afd7ed558ccd
	k ^= k >> 33
	k *= 0xc4ceb9fe1a85ec53
	k ^= k >> 33
	return k
}

func (v *Value) hash() uint64 {
	if v.kind == KindString {
		return hashBytes(unsafe.Slice((*byte)(v.p), int(v.n)))
	}
	// NULL's payload is always 0, a boolean's 0 or 1.
	return fmix64(uint64(v.n) ^ uint64(v.kind)*kindSeed)
}

// hashBytes is the hash of a string cell whose bytes are b.
func hashBytes(b []byte) uint64 {
	const stringSeed = 0x3c6ef372fe94f82a // KindString * kindSeed, mod 2⁶⁴
	h := stringSeed ^ uint64(len(b))*hashPrime
	for len(b) >= 8 {
		h = bits.RotateLeft64(h^binary.LittleEndian.Uint64(b)*hashPrime, 29) * kindSeed
		b = b[8:]
	}
	var tail uint64
	switch n := len(b); {
	case n >= 4:
		tail = uint64(binary.LittleEndian.Uint32(b)) | uint64(binary.LittleEndian.Uint32(b[n-4:]))<<32
	case n > 0:
		tail = uint64(b[0]) | uint64(b[n/2])<<8 | uint64(b[n-1])<<16
	}
	return fmix64(h ^ tail*hashPrime)
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
		if !nullEq(&a[i], &b[i]) {
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
		if !nullEq(&a[c], &b[bcols[i]]) {
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
		if c := orderCompare(&a[i], &b[i]); c != 0 {
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

// HashRow hashes a row consistently with NullEqRows: the cells' hashes
// folded in column order, each already finalized, so one multiply a
// cell carries them.
func HashRow(r Row) uint64 {
	h := uint64(kindSeed)
	for i := range r {
		h = (h ^ r[i].hash()) * hashPrime
	}
	return h
}

// HashCols is HashRow of the projection of r on cols, without building
// it. The two must agree: a key hashed in place is looked up by its
// projection and the other way round.
func HashCols(r Row, cols []int) uint64 {
	h := uint64(kindSeed)
	for _, c := range cols {
		h = (h ^ r[c].hash()) * hashPrime
	}
	return h
}

// BoxRows copies rows out as Go values, width cells a row: int64,
// string, bool, or nil for NULL. The copy shares nothing with rows, but
// it is not one allocation per cell: one slab holds every row's cells,
// and each boxed integer or string goes through one Boxer. A string's
// bytes are not copied: they are the stored string's, which is never
// written again.
func BoxRows(rows []Row, width int) [][]any {
	nints, nstrs := 0, 0
	for _, r := range rows {
		for i := range r {
			switch c := &r[i]; {
			case c.kind == KindInt && BoxTakesSlot(c.n):
				nints++
			case c.kind == KindString:
				nstrs++
			}
		}
	}
	box := NewBoxer(nints, nstrs)
	slab := make([]any, len(rows)*width)
	out := make([][]any, len(rows))
	for i, r := range rows {
		cells := slab[i*width : (i+1)*width : (i+1)*width]
		for j := range r {
			switch c := &r[j]; c.kind {
			case KindInt:
				cells[j] = box.Int(c.n)
			case KindString:
				cells[j] = box.String(c.str())
			case KindBool:
				cells[j] = c.n != 0
			}
		}
		out[i] = cells
	}
	return out
}

// Boxer boxes integer and string cells as Go values without an
// allocation per cell: each boxed integer or string points into one
// array of its kind, made once with the capacity its user counted.
// There are two users: BoxRows, over an execution's rows, and the
// server's frame decoder, over an answer's cells. A boxer is one
// answer's: its arrays are shared by every cell it boxed.
type Boxer struct {
	ints []int64
	strs []string
}

// NewBoxer makes a boxer for ints integers that take a slot (see
// BoxTakesSlot) and strs strings. With exact counts an append never
// moves what a boxed cell points at; were a count short, the array
// would grow into a new one and the cells boxed before would keep the
// old, which nothing writes again either.
func NewBoxer(ints, strs int) Boxer {
	return Boxer{ints: make([]int64, 0, ints), strs: make([]string, 0, strs)}
}

// BoxTakesSlot reports whether Boxer.Int stores n in the boxer's
// integer array: every integer but 0 to 255, which Go boxes without
// allocating anyway.
func BoxTakesSlot(n int64) bool { return uint64(n) >= 256 }

// Int boxes n as an int64.
func (b *Boxer) Int(n int64) any {
	if !BoxTakesSlot(n) {
		return n
	}
	b.ints = append(b.ints, n)
	return boxAt(intType, unsafe.Pointer(&b.ints[len(b.ints)-1]))
}

// String boxes s without copying its bytes.
func (b *Boxer) String(s string) any {
	b.strs = append(b.strs, s)
	return boxAt(stringType, unsafe.Pointer(&b.strs[len(b.strs)-1]))
}

// Bytes boxes p as a string without copying it: p's bytes must never
// be written again. The frame decoder unquotes an answer's strings into
// one byte array and boxes each from there.
func (b *Boxer) Bytes(p []byte) any {
	return b.String(unsafe.String(unsafe.SliceData(p), len(p)))
}

// eface is the layout of an interface value with no methods: its
// dynamic type and a pointer to the value.
type eface struct {
	typ, data unsafe.Pointer
}

var intType, stringType = typeWord(int64(0)), typeWord("")

func typeWord(v any) unsafe.Pointer { return (*eface)(unsafe.Pointer(&v)).typ }

// boxAt returns an interface of the dynamic type typ whose value is the
// one at p. Nothing writes a value through an interface, so one array
// may back any number of them, as long as nothing else writes it
// either.
func boxAt(typ, p unsafe.Pointer) (v any) {
	*(*eface)(unsafe.Pointer(&v)) = eface{typ: typ, data: p}
	return v
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
