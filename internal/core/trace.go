package core

import (
	"fmt"
	"sort"
	"strings"
)

// Trace records how Algorithm 1 reached its verdict, so every
// DISTINCT-elimination (Theorem 1), subquery↔join (Theorem 2), and
// intersection↔exists (Theorem 3) decision is explainable after the
// fact: which equalities bound which columns, what the final closure V
// was, and — for each FROM table — the candidate key that satisfied
// the coverage test or the fact that none did. All slices are
// deterministically ordered (sorted, or catalog/FROM order where that
// order is itself meaningful), so the trace can feed golden EXPLAIN
// output byte-for-byte.
type Trace struct {
	// CacheHit marks a verdict served from the VerdictCache rather
	// than recomputed; the trace content is the cached computation's.
	CacheHit bool `json:"cache_hit"`
	// Projection is the seed of V: the projected columns (empty for
	// the AtMostOneMatch form, where V starts from constants alone).
	Projection []string `json:"projection,omitempty"`
	// ConstCols are Type 1 bindings from the WHERE clause (column =
	// constant/host variable), sorted.
	ConstCols []string `json:"const_cols,omitempty"`
	// NullCols are IS NULL bindings (BindIsNull extension), sorted.
	NullCols []string `json:"null_cols,omitempty"`
	// CheckCols are bindings imported from CHECK table constraints
	// (UseCheckConstraints extension), sorted.
	CheckCols []string `json:"check_cols,omitempty"`
	// EquivPairs are Type 2 column-column equalities, sorted.
	EquivPairs [][2]string `json:"equiv_pairs,omitempty"`
	// KeyFDs reports whether the closure included key dependencies
	// (UseKeyFDs extension).
	KeyFDs bool `json:"key_fds"`
	// DroppedClauses counts the predicate clauses Algorithm 1 deleted
	// before testing coverage — disjunctions and non-equality atoms
	// (lines 6–9); -1 means the CNF conversion exceeded its cap and
	// the whole predicate was discarded.
	DroppedClauses int `json:"dropped_clauses"`
	// Closure is the final set V (identical to Verdict.Bound), sorted.
	Closure []string `json:"closure,omitempty"`
	// Tables holds the per-table coverage decisions in FROM order:
	// Algorithm 1 answers YES iff every entry is satisfied.
	Tables []TableTrace `json:"tables,omitempty"`
	// Note carries provenance for verdicts that bypass Algorithm 1
	// (e.g. INTERSECT DISTINCT is duplicate-free by definition).
	Note string `json:"note,omitempty"`
}

// TableTrace is one FROM table's key-coverage decision (Algorithm 1,
// line 17): the disjunct of the uniqueness condition contributed by
// this table, and the candidate key that decided it.
type TableTrace struct {
	// Corr is the correlation name; Table the catalog table behind it.
	Corr  string `json:"corr"`
	Table string `json:"table"`
	// CandidateKeys are the table's declared candidate keys, qualified
	// by Corr, in declaration order.
	CandidateKeys [][]string `json:"candidate_keys,omitempty"`
	// SatisfiedBy is the first candidate key found inside V (nil when
	// the table blocked the verdict).
	SatisfiedBy []string `json:"satisfied_by,omitempty"`
	// Blocked marks a table with no covered key; Reason says why.
	Blocked bool   `json:"blocked"`
	Reason  string `json:"reason,omitempty"`
}

// Lines renders the trace as indented text, one fact per line, in a
// fixed deterministic order. EXPLAIN output embeds these verbatim.
func (t *Trace) Lines() []string {
	if t == nil {
		return nil
	}
	var out []string
	add := func(format string, args ...any) {
		out = append(out, fmt.Sprintf(format, args...))
	}
	if t.Note != "" {
		add("note: %s", t.Note)
	}
	if t.CacheHit {
		add("provenance: verdict cache hit (trace reflects the cached computation)")
	} else {
		add("provenance: computed")
	}
	if t.Note != "" {
		return out
	}
	add("seed V0 (projection): %s", colList(t.Projection))
	if len(t.ConstCols) > 0 {
		add("type-1 bindings (col = const): %s", colList(t.ConstCols))
	}
	if len(t.NullCols) > 0 {
		add("is-null bindings: %s", colList(t.NullCols))
	}
	if len(t.CheckCols) > 0 {
		add("check-constraint bindings: %s", colList(t.CheckCols))
	}
	for _, p := range t.EquivPairs {
		add("type-2 equivalence: %s ≐ %s", p[0], p[1])
	}
	if t.KeyFDs {
		add("closure includes key FDs (UseKeyFDs)")
	}
	switch {
	case t.DroppedClauses < 0:
		add("predicate exceeded the CNF cap: no equalities extracted")
	case t.DroppedClauses > 0:
		add("dropped %d disjunctive/non-equality clause(s) (Algorithm 1 lines 6-9)", t.DroppedClauses)
	}
	add("closure V: %s", colList(t.Closure))
	for _, tt := range t.Tables {
		switch {
		case tt.Blocked:
			add("table %s (%s): BLOCKED — %s", tt.Corr, tt.Table, tt.Reason)
		default:
			add("table %s (%s): key (%s) ⊆ V", tt.Corr, tt.Table, strings.Join(tt.SatisfiedBy, ", "))
		}
	}
	return out
}

// colList renders a column list compactly and deterministically.
func colList(cols []string) string {
	if len(cols) == 0 {
		return "∅"
	}
	return strings.Join(cols, ", ")
}

// clone deep-copies a trace so cache consumers can mutate it.
func (t *Trace) clone() *Trace {
	if t == nil {
		return nil
	}
	out := &Trace{
		CacheHit:       t.CacheHit,
		Projection:     append([]string(nil), t.Projection...),
		ConstCols:      append([]string(nil), t.ConstCols...),
		NullCols:       append([]string(nil), t.NullCols...),
		CheckCols:      append([]string(nil), t.CheckCols...),
		EquivPairs:     append([][2]string(nil), t.EquivPairs...),
		KeyFDs:         t.KeyFDs,
		DroppedClauses: t.DroppedClauses,
		Closure:        append([]string(nil), t.Closure...),
		Note:           t.Note,
	}
	if t.Tables != nil {
		out.Tables = make([]TableTrace, len(t.Tables))
		for i, tt := range t.Tables {
			cp := tt
			cp.SatisfiedBy = append([]string(nil), tt.SatisfiedBy...)
			if tt.CandidateKeys != nil {
				cp.CandidateKeys = make([][]string, len(tt.CandidateKeys))
				for j, k := range tt.CandidateKeys {
					cp.CandidateKeys[j] = append([]string(nil), k...)
				}
			}
			out.Tables[i] = cp
		}
	}
	return out
}

// sortedKeys returns the map's keys in sorted order — the only way
// KeysUsed may be iterated for rendering (detorder invariant).
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// KeysUsedLines renders a verdict's KeysUsed map deterministically,
// one "corr: (cols)" line per table, sorted by correlation name.
func (v *Verdict) KeysUsedLines() []string {
	var out []string
	for _, corr := range sortedKeys(v.KeysUsed) {
		out = append(out, fmt.Sprintf("%s: (%s)", corr, strings.Join(v.KeysUsed[corr], ", ")))
	}
	return out
}
