package value

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"unsafe"
)

// model is the four-field Value this package had before the cell was
// re-laid as three words, kept verbatim as the executed oracle: one
// field a payload, nothing shared, nothing unsafe. Every observable of
// Value is checked against it below, the way the B+tree is checked
// against a sorted slice.
type model struct {
	kind Kind
	i    int64
	s    string
	b    bool
}

func (m model) asInt() int64 {
	if m.kind != KindInt {
		panic(fmt.Sprintf("value: AsInt on %s", m.kind))
	}
	return m.i
}

func (m model) asString() string {
	if m.kind != KindString {
		panic(fmt.Sprintf("value: AsString on %s", m.kind))
	}
	return m.s
}

func (m model) asBool() bool {
	if m.kind != KindBool {
		panic(fmt.Sprintf("value: AsBool on %s", m.kind))
	}
	return m.b
}

func (m *model) int() (int64, bool)  { return m.i, m.kind == KindInt }
func (m *model) str() (string, bool) { return m.s, m.kind == KindString }

func (m model) String() string {
	switch m.kind {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(m.i, 10)
	case KindString:
		return "'" + strings.ReplaceAll(m.s, "'", "''") + "'"
	case KindBool:
		if m.b {
			return "TRUE"
		}
		return "FALSE"
	default:
		return fmt.Sprintf("Value(kind=%d)", uint8(m.kind))
	}
}

func modelCompare(a, b model) int {
	if a.kind == KindNull || b.kind == KindNull {
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

func modelNullEq(a, b model) bool {
	if a.kind == KindNull || b.kind == KindNull {
		return a.kind == KindNull && b.kind == KindNull
	}
	if a.kind != b.kind {
		return false
	}
	return modelCompare(a, b) == 0
}

func modelOrderCompare(a, b model) int {
	switch {
	case a.kind == KindNull && b.kind == KindNull:
		return 0
	case a.kind == KindNull:
		return -1
	case b.kind == KindNull:
		return 1
	}
	if a.kind != b.kind {
		if a.kind < b.kind {
			return -1
		}
		return 1
	}
	return modelCompare(a, b)
}

// hash spells out the cell hash from the model's fields: the payload
// as a number, and a string's bytes assembled little-endian one at a
// time, with no unsafe read and no encoding/binary.
func (m model) hash() uint64 {
	seed := uint64(m.kind) * kindSeed
	switch m.kind {
	case KindInt:
		return fmix64(uint64(m.i) ^ seed)
	case KindBool:
		if m.b {
			return fmix64(1 ^ seed)
		}
		return fmix64(seed)
	case KindString:
	default:
		return fmix64(seed)
	}
	le := func(s string) (u uint64) {
		for i := len(s) - 1; i >= 0; i-- {
			u = u<<8 | uint64(s[i])
		}
		return u
	}
	s := m.s
	h := seed ^ uint64(len(s))*hashPrime
	for ; len(s) >= 8; s = s[8:] {
		h = bits.RotateLeft64(h^le(s[:8])*hashPrime, 29) * kindSeed
	}
	var tail uint64
	switch n := len(s); {
	case n >= 4:
		tail = le(s[:4]) | le(s[n-4:])<<32
	case n > 0:
		tail = le(s[:1]) | le(s[n/2:n/2+1])<<8 | le(s[n-1:])<<16
	}
	return fmix64(h ^ tail*hashPrime)
}

func modelHashRow(ms ...model) uint64 {
	h := uint64(kindSeed)
	for _, m := range ms {
		h = (h ^ m.hash()) * hashPrime
	}
	return h
}

// draw is one value in both representations, built from the three
// arguments a fuzz target can carry: kind selects NULL, integer, string
// or boolean, and each kind reads only its own argument.
func draw(kind uint8, i int64, s string) (Value, model) {
	switch Kind(kind % 4) {
	case KindInt:
		return Int(i), model{kind: KindInt, i: i}
	case KindString:
		return String_(s), model{kind: KindString, s: s}
	case KindBool:
		return Bool(i&1 == 1), model{kind: KindBool, b: i&1 == 1}
	default:
		return Null, model{}
	}
}

// modelCorpus are the draws every run covers whatever the seed: the
// empty string, NUL bytes, invalid UTF-8, a quote, a shared prefix, the
// integer extremes, both booleans, NULL.
var modelCorpus = []struct {
	kind uint8
	i    int64
	s    string
}{
	{kind: 0},
	{kind: 1, i: 0}, {kind: 1, i: 1}, {kind: 1, i: -1}, {kind: 1, i: 12},
	{kind: 1, i: math.MinInt64}, {kind: 1, i: math.MaxInt64},
	{kind: 2, s: ""}, {kind: 2, s: "a"}, {kind: 2, s: "ab"}, {kind: 2, s: "b"},
	{kind: 2, s: "\x00"}, {kind: 2, s: "a\x00b"}, {kind: 2, s: "\xff\xfe"}, {kind: 2, s: "h\xc3"},
	{kind: 2, s: "it's"}, {kind: 2, s: "héllo, wörld"}, {kind: 2, s: strings.Repeat("x", 300)},
	{kind: 3, i: 0}, {kind: 3, i: 1},
}

// outcome runs f and renders what it did: the value it returned or the
// text of its panic, so that results and panics compare alike.
func outcome(f func() any) (s string) {
	defer func() {
		if r := recover(); r != nil {
			s = fmt.Sprintf("panic: %v", r)
		}
	}()
	return fmt.Sprintf("%#v", f())
}

// checkAgainstModel compares every observable of a and b, alone and as
// a pair, and of the rows made of them, with the model's.
func checkAgainstModel(t *testing.T, a Value, ma model, b Value, mb model) {
	t.Helper()
	same := func(what string, got, want func() any) {
		t.Helper()
		if g, w := outcome(got), outcome(want); g != w {
			t.Errorf("%s of %s / %s: %s, model %s", what, ma, mb, g, w)
		}
	}
	for _, c := range []struct {
		v Value
		m model
	}{{a, ma}, {b, mb}} {
		v, m := c.v, c.m
		same("Kind", func() any { return v.Kind() }, func() any { return m.kind })
		same("IsNull", func() any { return v.IsNull() }, func() any { return m.kind == KindNull })
		same("AsInt", func() any { return v.AsInt() }, func() any { return m.asInt() })
		same("AsString", func() any { return v.AsString() }, func() any { return m.asString() })
		same("AsBool", func() any { return v.AsBool() }, func() any { return m.asBool() })
		same("Int", func() any { i, ok := v.Int(); return fmt.Sprint(i, ok) }, func() any { i, ok := m.int(); return fmt.Sprint(i, ok) })
		same("Str", func() any { s, ok := v.Str(); return fmt.Sprintf("%q %v", s, ok) }, func() any { s, ok := m.str(); return fmt.Sprintf("%q %v", s, ok) })
		same("String", func() any { return v.String() }, func() any { return m.String() })
		// The append spelling, after bytes already in the buffer and into
		// one too small to hold it: String's bytes, the prefix untouched.
		same("AppendSQL", func() any { return string(v.AppendSQL(append(make([]byte, 0, 9), "prefix: "...))) },
			func() any { return "prefix: " + m.String() })
		same("AppendSQL = String", func() any { return string(v.AppendSQL(nil)) }, func() any { return v.String() })
		same("Hash", func() any { return v.Hash() }, func() any { return m.hash() })
	}
	same("Compare", func() any { return Compare(a, b) }, func() any { return modelCompare(ma, mb) })
	same("NullEq", func() any { return NullEq(a, b) }, func() any { return modelNullEq(ma, mb) })
	same("OrderCompare", func() any { return OrderCompare(a, b) }, func() any { return modelOrderCompare(ma, mb) })

	ra, rb := Row{a, b}, Row{b, a}
	same("NullEqRows", func() any { return NullEqRows(ra, rb) }, func() any { return modelNullEq(ma, mb) })
	same("NullEqCols", func() any { return NullEqCols(ra, []int{1}, rb, []int{1}) }, func() any { return modelNullEq(mb, ma) })
	same("OrderCompareRows", func() any { return OrderCompareRows(ra, rb) }, func() any {
		if c := modelOrderCompare(ma, mb); c != 0 {
			return c
		}
		return modelOrderCompare(mb, ma)
	})
	same("HashRow", func() any { return HashRow(ra) }, func() any { return modelHashRow(ma, mb) })
	same("HashCols", func() any { return HashCols(ra, []int{1, 1, 0}) }, func() any { return modelHashRow(mb, mb, ma) })
}

func TestValueAgreesWithModel(t *testing.T) {
	for _, x := range modelCorpus {
		for _, y := range modelCorpus {
			a, ma := draw(x.kind, x.i, x.s)
			b, mb := draw(y.kind, y.i, y.s)
			checkAgainstModel(t, a, ma, b, mb)
		}
	}
	r := rand.New(rand.NewSource(23))
	randDraw := func() (Value, model) {
		if r.Intn(4) == 0 {
			c := modelCorpus[r.Intn(len(modelCorpus))]
			return draw(c.kind, c.i, c.s)
		}
		s := make([]byte, r.Intn(6))
		for i := range s {
			s[i] = "ab\x00'\xff"[r.Intn(5)]
		}
		// Small integers collide often; a shifted one reaches every byte
		// the hash mixes.
		i := int64(r.Intn(5)) - 2
		if r.Intn(2) == 0 {
			i = int64(r.Uint64())
		}
		return draw(uint8(r.Intn(4)), i, string(s))
	}
	for n := 0; n < 20000 && !t.Failed(); n++ {
		a, ma := randDraw()
		b, mb := randDraw()
		checkAgainstModel(t, a, ma, b, mb)
	}
}

func FuzzValueModel(f *testing.F) {
	for i, x := range modelCorpus {
		y := modelCorpus[(i*7+3)%len(modelCorpus)]
		f.Add(x.kind, x.i, x.s, y.kind, y.i, y.s)
		f.Add(x.kind, x.i, x.s, x.kind, x.i, x.s)
	}
	f.Fuzz(func(t *testing.T, ka uint8, ia int64, sa string, kb uint8, ib int64, sb string) {
		a, ma := draw(ka, ia, sa)
		b, mb := draw(kb, ib, sb)
		checkAgainstModel(t, a, ma, b, mb)
	})
}

// The layout itself: three words, the zero value NULL, and a string
// that goes in and comes out without being copied.
func TestValueLayout(t *testing.T) {
	if bits.UintSize == 64 {
		if got := unsafe.Sizeof(Value{}); got != 24 {
			t.Errorf("unsafe.Sizeof(Value{}) = %d, want 24", got)
		}
	}
	var zero Value
	if !zero.IsNull() || zero.Kind() != KindNull || !NullEq(zero, Null) || zero.String() != "NULL" {
		t.Errorf("the zero Value is %s (kind %s), want NULL", zero, zero.Kind())
	}

	src := strings.Repeat("payload ", 8)
	var sink string
	allocs := testing.AllocsPerRun(100, func() {
		v := String_(src)
		s, ok := v.Str()
		if !ok || s != v.AsString() {
			t.Fatal("String_ → Str → AsString lost the string")
		}
		sink = s
	})
	if allocs != 0 {
		t.Errorf("String_ → Str → AsString: %v allocs, want 0", allocs)
	}
	if sink != src || unsafe.StringData(sink) != unsafe.StringData(src) {
		t.Errorf("the string read back is not the string put in")
	}
}
