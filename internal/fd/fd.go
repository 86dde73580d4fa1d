// Package fd implements functional dependencies over derived tables.
//
// A key declaration on a base table implies that all attributes of the
// table are functionally dependent on the key (a key dependency, KD).
// The paper's analysis tracks which functional dependencies (FDs)
// survive into a derived table — derived FDs — under selection,
// projection and extended Cartesian product, and under the ≐
// (null-equivalent) comparison of Definition 1: corresponding
// attributes must either agree in value or both be NULL.
//
// Attributes are identified by canonical "CORRELATION.COLUMN" strings,
// matching the norm package. Three constructors mirror the three
// sources of dependencies in Theorem 1's antecedent:
//
//   - AddKey:      U_i(R) → α(R), one per candidate key (key dependency)
//   - AddConstant: ∅ → v, from a Type 1 predicate v = c
//   - AddEquiv:    v1 ↔ v2, from a Type 2 predicate v1 = v2
//
// Algorithm 1's bound-column set V is exactly the attribute closure of
// the projection list under these dependencies; the fd package is the
// engine beneath internal/core.
package fd

import (
	"sort"
	"strings"
)

// FD is a functional dependency From → To. An empty From means the
// right-hand side is constant across all qualifying rows.
type FD struct {
	From []string
	To   []string
}

// String renders the dependency as "A,B -> C,D".
func (f FD) String() string {
	lhs := strings.Join(f.From, ",")
	if lhs == "" {
		lhs = "∅"
	}
	return lhs + " -> " + strings.Join(f.To, ",")
}

// Set is a mutable collection of functional dependencies.
type Set struct {
	fds []FD
}

// NewSet returns an empty dependency set.
func NewSet() *Set { return &Set{} }

// Add inserts the dependency from → to.
func (s *Set) Add(from, to []string) {
	if len(to) == 0 {
		return
	}
	s.fds = append(s.fds, FD{From: append([]string(nil), from...), To: append([]string(nil), to...)})
}

// AddKey records a key dependency: key determines every attribute in
// all (which should include the key itself).
func (s *Set) AddKey(key, all []string) { s.Add(key, all) }

// AddConstant records that col is constant across qualifying rows
// (Type 1 equality v = c).
func (s *Set) AddConstant(col string) { s.Add(nil, []string{col}) }

// AddEquiv records mutual determination between a and b (Type 2
// equality v1 = v2).
func (s *Set) AddEquiv(a, b string) {
	if a == b {
		return
	}
	s.Add([]string{a}, []string{b})
	s.Add([]string{b}, []string{a})
}

// Clone returns a deep copy of the set.
func (s *Set) Clone() *Set {
	out := &Set{fds: make([]FD, len(s.fds))}
	for i, f := range s.fds {
		out.fds[i] = FD{
			From: append([]string(nil), f.From...),
			To:   append([]string(nil), f.To...),
		}
	}
	return out
}

// Len reports the number of stored dependencies.
func (s *Set) Len() int { return len(s.fds) }

// FDs returns a copy of the stored dependencies.
func (s *Set) FDs() []FD {
	return append([]FD(nil), s.fds...)
}

// Closure computes the attribute closure of attrs under s: the set of
// attributes functionally determined by attrs. Standard fixpoint
// iteration; O(|fds| · |attrs|) per pass.
func (s *Set) Closure(attrs []string) map[string]bool {
	out := make(map[string]bool, len(attrs))
	for _, a := range attrs {
		out[a] = true
	}
	for changed := true; changed; {
		changed = false
		for _, f := range s.fds {
			if !allIn(f.From, out) {
				continue
			}
			for _, t := range f.To {
				if !out[t] {
					out[t] = true
					changed = true
				}
			}
		}
	}
	return out
}

// Implies reports whether from → to is derivable from s (Armstrong
// closure membership).
func (s *Set) Implies(from, to []string) bool {
	cl := s.Closure(from)
	return allIn(to, cl)
}

// IsSuperkey reports whether attrs functionally determine every
// attribute in all.
func (s *Set) IsSuperkey(attrs, all []string) bool {
	return s.Implies(attrs, all)
}

// MinimizeKey shrinks a superkey to a minimal key by greedy removal.
// The result depends on attribute order; callers wanting determinism
// should sort attrs first. Returns nil if attrs is not a superkey.
func (s *Set) MinimizeKey(attrs, all []string) []string {
	if !s.IsSuperkey(attrs, all) {
		return nil
	}
	key := append([]string(nil), attrs...)
	for i := 0; i < len(key); {
		trial := make([]string, 0, len(key)-1)
		trial = append(trial, key[:i]...)
		trial = append(trial, key[i+1:]...)
		if s.IsSuperkey(trial, all) {
			key = trial
		} else {
			i++
		}
	}
	return key
}

// CandidateKeys enumerates candidate keys of the attribute set all
// under s, using the Lucchesi–Osborn saturation: for every known key K
// and every FD X → Y, (K \ Y) ∪ X is a superkey whose minimization may
// be a new candidate key. The search is capped at max keys (the
// problem is exponential in general; Darwen's algorithm has the same
// character). Results are sorted for determinism.
func (s *Set) CandidateKeys(all []string, max int) [][]string {
	if max <= 0 {
		max = 16
	}
	first := s.MinimizeKey(all, all)
	if first == nil {
		return nil
	}
	sort.Strings(first)
	keys := [][]string{first}
	seen := map[string]bool{strings.Join(first, "\x00"): true}
	for i := 0; i < len(keys) && len(keys) < max; i++ {
		for _, f := range s.fds {
			if len(f.From) == 0 {
				continue
			}
			trial := subtract(keys[i], f.To)
			trial = union(trial, f.From)
			k := s.MinimizeKey(trial, all)
			if k == nil {
				continue
			}
			sort.Strings(k)
			id := strings.Join(k, "\x00")
			if !seen[id] {
				seen[id] = true
				keys = append(keys, k)
				if len(keys) >= max {
					break
				}
			}
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if len(keys[i]) != len(keys[j]) {
			return len(keys[i]) < len(keys[j])
		}
		return strings.Join(keys[i], ",") < strings.Join(keys[j], ",")
	})
	return keys
}

// Project restricts the dependency set to attributes in keep: the
// derived table after projection retains an FD X → y when X ⊆ keep,
// y ∈ keep, and X → y is derivable. Full projection of an FD set is
// exponential (Klug 1980); this implementation rewrites each stored
// FD's left-hand side into keep where possible — dropping attributes
// that are constants (∅-closure members) and substituting equivalent
// kept attributes for projected-away ones — and then closes. This
// preserves the derived key dependencies the paper's analysis needs
// (key dependencies whose LHS columns are bound by Type 1/Type 2
// predicates or survive projection), at the cost of missing FDs whose
// minimal determinants arise only from subset enumeration.
func (s *Set) Project(keep []string) *Set {
	keepSet := make(map[string]bool, len(keep))
	for _, k := range keep {
		keepSet[k] = true
	}
	out := NewSet()
	// Constants survive projection directly.
	empty := s.Closure(nil)
	for a := range empty {
		if keepSet[a] {
			out.AddConstant(a)
		}
	}
	for _, f := range s.fds {
		if len(f.From) == 0 {
			continue
		}
		from, ok := s.rewriteLHS(f.From, keepSet, empty)
		if !ok {
			continue
		}
		cl := s.Closure(f.From)
		var to []string
		for a := range cl {
			if keepSet[a] {
				to = append(to, a)
			}
		}
		sort.Strings(to)
		if len(to) > 0 {
			out.Add(from, to)
		}
	}
	return out
}

// rewriteLHS maps an FD left-hand side into keep: attributes already
// in keep pass through; attributes that are constants are dropped;
// other attributes are substituted by a kept attribute that determines
// them, if one exists. Returns ok=false when no rewriting exists.
func (s *Set) rewriteLHS(from []string, keep, constants map[string]bool) ([]string, bool) {
	var out []string
	seen := make(map[string]bool)
	add := func(a string) {
		if !seen[a] {
			seen[a] = true
			out = append(out, a)
		}
	}
	for _, a := range from {
		switch {
		case keep[a]:
			add(a)
		case constants[a]:
			// Bound to a constant: contributes nothing to the LHS.
		default:
			sub := ""
			for b := range keep {
				if s.Implies([]string{b}, []string{a}) {
					if sub == "" || b < sub {
						sub = b // deterministic choice
					}
				}
			}
			if sub == "" {
				return nil, false
			}
			add(sub)
		}
	}
	sort.Strings(out)
	return out, true
}

func allIn(attrs []string, set map[string]bool) bool {
	for _, a := range attrs {
		if !set[a] {
			return false
		}
	}
	return true
}

func subtract(a, b []string) []string {
	drop := make(map[string]bool, len(b))
	for _, x := range b {
		drop[x] = true
	}
	var out []string
	for _, x := range a {
		if !drop[x] {
			out = append(out, x)
		}
	}
	return out
}

func union(a, b []string) []string {
	seen := make(map[string]bool, len(a)+len(b))
	var out []string
	for _, x := range a {
		if !seen[x] {
			seen[x] = true
			out = append(out, x)
		}
	}
	for _, x := range b {
		if !seen[x] {
			seen[x] = true
			out = append(out, x)
		}
	}
	return out
}
