package fd

import (
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
)

func sorted(m map[string]bool) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func TestClosureBasics(t *testing.T) {
	s := NewSet()
	s.Add([]string{"A"}, []string{"B"})
	s.Add([]string{"B"}, []string{"C"})
	cl := s.Closure([]string{"A"})
	if !cl["A"] || !cl["B"] || !cl["C"] {
		t.Errorf("closure = %v", sorted(cl))
	}
	cl = s.Closure([]string{"B"})
	if cl["A"] {
		t.Error("closure should not flow backwards")
	}
}

func TestConstantsHaveEmptyLHS(t *testing.T) {
	s := NewSet()
	s.AddConstant("X")
	cl := s.Closure(nil)
	if !cl["X"] {
		t.Error("constant must appear in the closure of the empty set")
	}
}

func TestAddEquiv(t *testing.T) {
	s := NewSet()
	s.AddEquiv("A", "B")
	if !s.Implies([]string{"A"}, []string{"B"}) || !s.Implies([]string{"B"}, []string{"A"}) {
		t.Error("equivalence must imply both directions")
	}
	s.AddEquiv("C", "C")
	if s.Len() != 2 {
		t.Error("self-equivalence must be ignored")
	}
}

func TestAddEmptyToIgnored(t *testing.T) {
	s := NewSet()
	s.Add([]string{"A"}, nil)
	if s.Len() != 0 {
		t.Error("FD with empty RHS should be ignored")
	}
}

func TestKeyDependencyExample3(t *testing.T) {
	// Paper Example 3: SELECT ALL S.SNO, SNAME, P.PNO, PNAME
	// FROM SUPPLIER S, PARTS P
	// WHERE P.SNO = :SUPPLIER-NO AND S.SNO = P.SNO.
	// Claim: P.PNO is a key of the derived table, and
	// S.SNO → S.SNAME survives as a non-key dependency.
	s := NewSet()
	supplierAll := []string{"S.SNO", "S.SNAME", "S.SCITY", "S.BUDGET", "S.STATUS"}
	partsAll := []string{"P.SNO", "P.PNO", "P.PNAME", "P.OEM-PNO", "P.COLOR"}
	s.AddKey([]string{"S.SNO"}, supplierAll)
	s.AddKey([]string{"P.SNO", "P.PNO"}, partsAll)
	s.AddKey([]string{"P.OEM-PNO"}, partsAll)
	s.AddConstant("P.SNO")       // P.SNO = :SUPPLIER-NO
	s.AddEquiv("S.SNO", "P.SNO") // S.SNO = P.SNO

	all := append(append([]string{}, supplierAll...), partsAll...)
	if !s.IsSuperkey([]string{"P.PNO"}, all) {
		t.Fatal("P.PNO must be a superkey of the derived product")
	}
	// The derived key dependency in the projected table.
	proj := []string{"S.SNO", "S.SNAME", "P.PNO", "P.PNAME"}
	p := s.Project(proj)
	if !p.IsSuperkey([]string{"P.PNO"}, proj) {
		t.Error("P.PNO must remain a key after projection")
	}
	// S.SNO → S.SNAME survives as a non-key FD.
	if !p.Implies([]string{"S.SNO"}, []string{"S.SNAME"}) {
		t.Error("S.SNO → S.SNAME must survive projection")
	}
	if p.IsSuperkey([]string{"S.SNAME"}, proj) {
		t.Error("S.SNAME must not be a key")
	}
}

func TestMinimizeKey(t *testing.T) {
	s := NewSet()
	all := []string{"A", "B", "C"}
	s.AddKey([]string{"A"}, all)
	k := s.MinimizeKey([]string{"A", "B", "C"}, all)
	if !reflect.DeepEqual(k, []string{"A"}) {
		t.Errorf("minimized key = %v", k)
	}
	if s.MinimizeKey([]string{"B"}, all) != nil {
		t.Error("non-superkey must minimize to nil")
	}
}

func TestCandidateKeysEnumeration(t *testing.T) {
	// PARTS: primary key (SNO, PNO) and candidate key OEM-PNO.
	s := NewSet()
	all := []string{"SNO", "PNO", "PNAME", "OEM-PNO", "COLOR"}
	s.AddKey([]string{"SNO", "PNO"}, all)
	s.AddKey([]string{"OEM-PNO"}, all)
	keys := s.CandidateKeys(all, 16)
	want := [][]string{{"OEM-PNO"}, {"PNO", "SNO"}}
	if !reflect.DeepEqual(keys, want) {
		t.Errorf("candidate keys = %v, want %v", keys, want)
	}
}

func TestCandidateKeysWithEquivalence(t *testing.T) {
	// A is key; A ↔ B makes B a key too.
	s := NewSet()
	all := []string{"A", "B", "C"}
	s.AddKey([]string{"A"}, all)
	s.AddEquiv("A", "B")
	keys := s.CandidateKeys(all, 16)
	want := [][]string{{"A"}, {"B"}}
	if !reflect.DeepEqual(keys, want) {
		t.Errorf("candidate keys = %v, want %v", keys, want)
	}
}

func TestCandidateKeysNoKey(t *testing.T) {
	s := NewSet()
	// No FDs: the only key of {A,B} is {A,B} itself.
	keys := s.CandidateKeys([]string{"A", "B"}, 4)
	want := [][]string{{"A", "B"}}
	if !reflect.DeepEqual(keys, want) {
		t.Errorf("keys = %v", keys)
	}
}

func TestCandidateKeysCap(t *testing.T) {
	// n mutually equivalent attributes yield n singleton keys; the cap
	// truncates enumeration.
	s := NewSet()
	var all []string
	for i := 0; i < 8; i++ {
		all = append(all, string(rune('A'+i)))
	}
	s.AddKey([]string{"A"}, all)
	for i := 1; i < 8; i++ {
		s.AddEquiv("A", all[i])
	}
	keys := s.CandidateKeys(all, 3)
	if len(keys) != 3 {
		t.Errorf("cap not honored: %d keys", len(keys))
	}
	keys = s.CandidateKeys(all, 100)
	if len(keys) != 8 {
		t.Errorf("expected 8 singleton keys, got %v", keys)
	}
}

func TestProjectDropsUnprojectableFDs(t *testing.T) {
	s := NewSet()
	s.Add([]string{"A"}, []string{"B"})
	s.Add([]string{"B"}, []string{"C"})
	p := s.Project([]string{"A", "C"})
	// A → C holds via transitivity even though B is projected away.
	if !p.Implies([]string{"A"}, []string{"C"}) {
		t.Error("transitive FD must survive projection")
	}
	// B is gone; nothing about it remains.
	for _, f := range p.FDs() {
		if strings.Contains(f.String(), "B") {
			t.Errorf("projected set mentions B: %v", f)
		}
	}
}

func TestProjectKeepsConstants(t *testing.T) {
	s := NewSet()
	s.AddConstant("A")
	s.Add([]string{"A"}, []string{"B"})
	p := s.Project([]string{"B"})
	// A is constant and A → B, so B is constant in the projection.
	// Note: our conservative projection keeps B constant because the
	// empty-set closure includes it.
	if !p.Closure(nil)["B"] {
		t.Error("constant propagation through projection failed")
	}
}

func TestCloneSharesNoState(t *testing.T) {
	a := NewSet()
	a.Add([]string{"A"}, []string{"B"})
	a.Add([]string{"B"}, []string{"C"})
	if !a.Implies([]string{"A"}, []string{"C"}) {
		t.Error("transitivity failed")
	}
	c := a.Clone()
	c.Add([]string{"C"}, []string{"D"})
	if a.Implies([]string{"A"}, []string{"D"}) {
		t.Error("clone shares state")
	}
}

func TestFDString(t *testing.T) {
	f := FD{From: []string{"A", "B"}, To: []string{"C"}}
	if f.String() != "A,B -> C" {
		t.Errorf("String = %q", f.String())
	}
	f = FD{To: []string{"X"}}
	if f.String() != "∅ -> X" {
		t.Errorf("String = %q", f.String())
	}
}

// Armstrong's axioms as properties over random FD sets: reflexivity,
// augmentation, transitivity, all realized through Closure.
func TestArmstrongProperties(t *testing.T) {
	attrs := []string{"A", "B", "C", "D", "E"}
	r := rand.New(rand.NewSource(42))
	randSubset := func() []string {
		var out []string
		for _, a := range attrs {
			if r.Intn(2) == 0 {
				out = append(out, a)
			}
		}
		return out
	}
	for trial := 0; trial < 200; trial++ {
		s := NewSet()
		for i := 0; i < r.Intn(6); i++ {
			from, to := randSubset(), randSubset()
			if len(to) > 0 {
				s.Add(from, to)
			}
		}
		x, y := randSubset(), randSubset()
		// Reflexivity: X ⊇ Y ⇒ X → Y.
		inX := make(map[string]bool)
		for _, a := range x {
			inX[a] = true
		}
		sub := true
		for _, a := range y {
			if !inX[a] {
				sub = false
			}
		}
		if sub && !s.Implies(x, y) {
			t.Fatalf("reflexivity violated: %v → %v", x, y)
		}
		// Transitivity through closure: if X → Y and Y → Z then X → Z.
		z := randSubset()
		if s.Implies(x, y) && s.Implies(y, z) && !s.Implies(x, z) {
			t.Fatalf("transitivity violated: %v → %v → %v", x, y, z)
		}
		// Monotonicity: closure(X) ⊆ closure(X ∪ W).
		w := randSubset()
		xw := append(append([]string{}, x...), w...)
		clX, clXW := s.Closure(x), s.Closure(xw)
		for a := range clX {
			if !clXW[a] {
				t.Fatalf("monotonicity violated at %s", a)
			}
		}
	}
}

// Property: every enumerated candidate key is minimal and a superkey.
func TestCandidateKeysMinimalityProperty(t *testing.T) {
	attrs := []string{"A", "B", "C", "D"}
	r := rand.New(rand.NewSource(7))
	randSubset := func() []string {
		var out []string
		for _, a := range attrs {
			if r.Intn(2) == 0 {
				out = append(out, a)
			}
		}
		return out
	}
	for trial := 0; trial < 100; trial++ {
		s := NewSet()
		for i := 0; i < 1+r.Intn(4); i++ {
			from, to := randSubset(), randSubset()
			if len(to) > 0 {
				s.Add(from, to)
			}
		}
		for _, k := range s.CandidateKeys(attrs, 32) {
			if !s.IsSuperkey(k, attrs) {
				t.Fatalf("non-superkey enumerated: %v", k)
			}
			for i := range k {
				trial := append(append([]string{}, k[:i]...), k[i+1:]...)
				if s.IsSuperkey(trial, attrs) {
					t.Fatalf("non-minimal key enumerated: %v (drop %s)", k, k[i])
				}
			}
		}
	}
}
