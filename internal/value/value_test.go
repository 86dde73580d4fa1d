package value

import (
	"math/rand"
	"testing"
	"testing/quick"

	"uniqopt/internal/tvl"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindNull:   "NULL",
		KindInt:    "INTEGER",
		KindString: "VARCHAR",
		KindBool:   "BOOLEAN",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

func TestConstructorsAndAccessors(t *testing.T) {
	if !Null.IsNull() || Null.Kind() != KindNull {
		t.Fatal("zero Value must be NULL")
	}
	if Int(42).AsInt() != 42 || Int(42).Kind() != KindInt {
		t.Error("Int round-trip failed")
	}
	if String_("abc").AsString() != "abc" {
		t.Error("String_ round-trip failed")
	}
	if !Bool(true).AsBool() || Bool(false).AsBool() {
		t.Error("Bool round-trip failed")
	}
}

func TestAccessorPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("AsInt on string", func() { String_("x").AsInt() })
	mustPanic("AsString on int", func() { Int(1).AsString() })
	mustPanic("AsBool on null", func() { Null.AsBool() })
	mustPanic("Compare on NULL", func() { Compare(Null, Int(1)) })
	mustPanic("Compare kind mismatch", func() { Compare(Int(1), String_("x")) })
}

func TestValueString(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{Null, "NULL"},
		{Int(-7), "-7"},
		{String_("it's"), "'it''s'"},
		{Bool(true), "TRUE"},
		{Bool(false), "FALSE"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

func TestComparable(t *testing.T) {
	if !Comparable(KindInt, KindInt) || !Comparable(KindNull, KindString) ||
		!Comparable(KindBool, KindNull) {
		t.Error("Comparable false negatives")
	}
	if Comparable(KindInt, KindString) {
		t.Error("int/string should not be comparable")
	}
}

func TestCompare(t *testing.T) {
	if Compare(Int(1), Int(2)) != -1 || Compare(Int(2), Int(1)) != 1 || Compare(Int(5), Int(5)) != 0 {
		t.Error("int Compare wrong")
	}
	if Compare(String_("a"), String_("b")) != -1 || Compare(String_("b"), String_("b")) != 0 {
		t.Error("string Compare wrong")
	}
	if Compare(Bool(false), Bool(true)) != -1 || Compare(Bool(true), Bool(false)) != 1 ||
		Compare(Bool(true), Bool(true)) != 0 {
		t.Error("bool Compare wrong")
	}
}

func TestThreeValuedComparisons(t *testing.T) {
	// Any NULL operand ⇒ Unknown, the core SQL rule.
	for _, f := range []func(a, b Value) tvl.Truth{Eq, Ne, Lt, Le, Gt, Ge} {
		if !tvl.IsUnknown(f(Null, Int(1))) || !tvl.IsUnknown(f(Int(1), Null)) ||
			!tvl.IsUnknown(f(Null, Null)) {
			t.Fatal("comparison with NULL must be Unknown")
		}
	}
	if !tvl.IsTrue(Eq(Int(3), Int(3))) || !tvl.IsFalse(Eq(Int(3), Int(4))) {
		t.Error("Eq wrong")
	}
	if !tvl.IsTrue(Ne(Int(3), Int(4))) || !tvl.IsFalse(Ne(Int(3), Int(3))) {
		t.Error("Ne wrong")
	}
	if !tvl.IsTrue(Lt(Int(3), Int(4))) || !tvl.IsTrue(Le(Int(4), Int(4))) ||
		!tvl.IsTrue(Gt(Int(5), Int(4))) || !tvl.IsTrue(Ge(Int(4), Int(4))) {
		t.Error("ordered comparison wrong")
	}
	if !tvl.IsFalse(Lt(Int(4), Int(3))) || !tvl.IsFalse(Gt(Int(3), Int(4))) {
		t.Error("ordered comparison wrong (false cases)")
	}
}

func TestNullEq(t *testing.T) {
	// The ≐ operator: NULL ≐ NULL is true; NULL ≐ x is false.
	if !NullEq(Null, Null) {
		t.Error("NULL ≐ NULL must hold")
	}
	if NullEq(Null, Int(0)) || NullEq(String_(""), Null) {
		t.Error("NULL ≐ non-NULL must not hold")
	}
	if !NullEq(Int(9), Int(9)) || NullEq(Int(9), Int(10)) {
		t.Error("≐ on ints wrong")
	}
	if NullEq(Int(1), String_("1")) {
		t.Error("≐ across kinds must be false")
	}
}

func TestOrderCompareTotalOrder(t *testing.T) {
	// NULL sorts first.
	if OrderCompare(Null, Int(-1<<62)) != -1 || OrderCompare(Int(0), Null) != 1 ||
		OrderCompare(Null, Null) != 0 {
		t.Error("NULL ordering wrong")
	}
	// Cross-kind ordering is by kind.
	if OrderCompare(Int(5), String_("a")) != -1 {
		t.Error("kind ordering wrong")
	}
}

func TestHashConsistentWithNullEq(t *testing.T) {
	vals := []Value{Null, Int(0), Int(1), Int(-1), String_(""), String_("a"),
		String_("ab"), Bool(true), Bool(false)}
	for _, a := range vals {
		for _, b := range vals {
			if NullEq(a, b) && a.Hash() != b.Hash() {
				t.Errorf("NullEq(%v,%v) but hashes differ", a, b)
			}
		}
	}
}

func TestRowHelpers(t *testing.T) {
	r := Row{Int(1), Null, String_("x")}
	c := r.Clone()
	c[0] = Int(99)
	if r[0].AsInt() != 1 {
		t.Error("Clone shares storage")
	}
	if !NullEqRows(r, Row{Int(1), Null, String_("x")}) {
		t.Error("NullEqRows false negative")
	}
	if NullEqRows(r, Row{Int(1), Int(0), String_("x")}) {
		t.Error("NULL column must not match non-NULL")
	}
	if NullEqRows(r, r[:2]) {
		t.Error("rows of different arity must differ")
	}
	if r.String() != "(1, NULL, 'x')" {
		t.Errorf("Row.String() = %q", r.String())
	}
}

func TestOrderCompareRows(t *testing.T) {
	a := Row{Int(1), Int(2)}
	b := Row{Int(1), Int(3)}
	if OrderCompareRows(a, b) != -1 || OrderCompareRows(b, a) != 1 || OrderCompareRows(a, a) != 0 {
		t.Error("lexicographic row compare wrong")
	}
	// Prefix rows order before longer rows.
	if OrderCompareRows(a[:1], a) != -1 || OrderCompareRows(a, a[:1]) != 1 {
		t.Error("prefix ordering wrong")
	}
	// NULL-first within rows.
	if OrderCompareRows(Row{Null}, Row{Int(-100)}) != -1 {
		t.Error("NULL-first within rows wrong")
	}
}

// randValue produces a small-domain random value, NULL-inclusive.
func randValue(r *rand.Rand) Value {
	switch r.Intn(4) {
	case 0:
		return Null
	case 1:
		return Int(int64(r.Intn(5)))
	case 2:
		return String_(string(rune('a' + r.Intn(3))))
	default:
		return Bool(r.Intn(2) == 0)
	}
}

// Property: NullEq is an equivalence relation.
func TestNullEqEquivalenceProperty(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		a, b, c := randValue(r), randValue(r), randValue(r)
		if !NullEq(a, a) {
			t.Fatalf("reflexivity failed for %v", a)
		}
		if NullEq(a, b) != NullEq(b, a) {
			t.Fatalf("symmetry failed for %v,%v", a, b)
		}
		if NullEq(a, b) && NullEq(b, c) && !NullEq(a, c) {
			t.Fatalf("transitivity failed for %v,%v,%v", a, b, c)
		}
	}
}

// Property: OrderCompare is antisymmetric and agrees with NullEq on zero.
func TestOrderCompareProperty(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 5000; i++ {
		a, b := randValue(r), randValue(r)
		if OrderCompare(a, b) != -OrderCompare(b, a) {
			t.Fatalf("antisymmetry failed for %v,%v", a, b)
		}
		if (OrderCompare(a, b) == 0) != NullEq(a, b) {
			t.Fatalf("OrderCompare==0 must coincide with ≐ for %v,%v", a, b)
		}
	}
}

// Property: Eq is True exactly when both non-NULL and NullEq holds.
func TestEqVsNullEqProperty(t *testing.T) {
	f := func(x, y int8) bool {
		a, b := Int(int64(x%3)), Int(int64(y%3))
		return tvl.IsTrue(Eq(a, b)) == NullEq(a, b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: row hash consistent with row equivalence.
func TestHashRowProperty(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 3000; i++ {
		n := r.Intn(4)
		a, b := make(Row, n), make(Row, n)
		for j := 0; j < n; j++ {
			a[j] = randValue(r)
			if r.Intn(2) == 0 {
				b[j] = a[j]
			} else {
				b[j] = randValue(r)
			}
		}
		if NullEqRows(a, b) && HashRow(a) != HashRow(b) {
			t.Fatalf("equivalent rows %v and %v hash differently", a, b)
		}
	}
}

// Constraint checks hash and compare key columns where they lie in the
// row; lookups by a projected key hash the projection. The two
// spellings must agree for every column list, or a key filed one way is
// not found the other way.
func TestColumnListVariantsAgreeWithProjection(t *testing.T) {
	rows := []Row{
		{Int(1), String_("a"), Null, Bool(true), Int(-7)},
		{Int(1), String_("a"), Null, Bool(false), Int(-7)},
		{Null, Null, Null, Null, Null},
		{String_(""), Int(0), Bool(false), Null, String_("a")},
	}
	lists := [][]int{{}, {0}, {4}, {0, 1}, {1, 0}, {2, 3}, {4, 2, 0}, {0, 1, 2, 3, 4}, {3, 3}}
	project := func(r Row, cols []int) Row {
		out := make(Row, len(cols))
		for i, c := range cols {
			out[i] = r[c]
		}
		return out
	}
	for _, a := range rows {
		for _, cols := range lists {
			if got, want := HashCols(a, cols), HashRow(project(a, cols)); got != want {
				t.Errorf("HashCols(%s, %v) = %#x, HashRow of the projection = %#x", a, cols, got, want)
			}
			for _, b := range rows {
				for _, bcols := range lists {
					got := NullEqCols(a, cols, b, bcols)
					if want := NullEqRows(project(a, cols), project(b, bcols)); got != want {
						t.Errorf("NullEqCols(%s, %v, %s, %v) = %v, NullEqRows of the projections = %v", a, cols, b, bcols, got, want)
					}
				}
			}
		}
	}
}
