// Package core implements the central results of Paulley & Larson,
// "Exploiting Uniqueness in Query Optimization" (ICDE 1994):
//
//   - Algorithm 1: a practical sufficient test for the redundancy of
//     duplicate elimination (Theorem 1's uniqueness condition),
//   - an exact bounded-domain checker for Theorem 1 used as ground
//     truth in tests and in the E7/E8 experiments,
//   - the rewrite rules of Theorem 2 (subquery ↔ join), Corollary 1
//     (subquery → DISTINCT join), Theorem 3 / Corollary 2
//     (INTERSECT [ALL] → EXISTS), and the EXCEPT [ALL] → NOT EXISTS
//     extension the paper sketches,
//   - the join → subquery direction used by navigational systems
//     (Section 6).
//
// DISJUNCTION UNSOUNDNESS NOTE. Algorithm 1 (lines 6–9) deletes every
// disjunctive clause before testing key coverage. This is essential:
// testing each DNF term independently — as the correctness sketch in
// the paper's Section 4.1 might suggest — is unsound. Counterexample:
// R(K, X) with key K and the query
//
//	SELECT X FROM R WHERE (X = 1 AND K = 1) OR (X = 1 AND K = 2)
//
// Every DNF term binds K, yet the rows (1,1) and (2,1) both qualify
// and project to duplicate X values. Our implementation therefore
// follows the algorithm as stated (conjunctive equalities only), and
// the property tests in exact_test.go pin the counterexample.
package core

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"uniqopt/internal/catalog"
	"uniqopt/internal/fd"
	"uniqopt/internal/norm"
	"uniqopt/internal/sql/ast"
)

// Options tune the analyzer.
type Options struct {
	// BindIsNull enables the sound "true-interpreted predicate"
	// extension: an IS NULL conjunct binds its column (all qualifying
	// rows agree on it under ≐). Off by default (paper-literal).
	BindIsNull bool
	// UseKeyFDs adds key dependencies to the closure computation, so a
	// bound key binds the rest of its table's columns transitively.
	// This answers YES strictly more often than Algorithm 1's V and
	// remains sound (Armstrong closure over valid ≐-dependencies).
	// Off = paper-literal Algorithm 1.
	UseKeyFDs bool
	// UseCheckConstraints imports Type 1 equalities from CHECK table
	// constraints (§2.1: "we can add any table constraint to a query
	// without changing the query result"). Only equalities on NOT NULL
	// columns are imported: CHECK constraints pass under the true
	// interpretation ⌈P⌉, so CHECK (X = 5) on a nullable X admits
	// NULLs and does not bind the column under ≐.
	UseCheckConstraints bool
}

// Bits encodes the options into a word, so a cache keyed by compile
// options (plan.Options.CompileBits) can tell option sets apart.
func (o Options) Bits() uint64 {
	var b uint64
	if o.BindIsNull {
		b |= 1
	}
	if o.UseKeyFDs {
		b |= 2
	}
	if o.UseCheckConstraints {
		b |= 4
	}
	return b
}

// Verdict is the outcome of a uniqueness analysis.
type Verdict struct {
	// Unique reports that the query block cannot produce duplicate
	// rows (Theorem 1's condition, tested by Algorithm 1).
	Unique bool
	// Bound is the final set V of Algorithm 1, sorted.
	Bound []string
	// KeysUsed maps each correlation name to the candidate key that
	// was found inside V (when Unique).
	KeysUsed map[string][]string
	// MissingTable names the first FROM table with no covered key
	// (when !Unique), or carries a reason string for early NO.
	MissingTable string
	// Dropped is the number of predicate conjuncts Algorithm 1
	// ignored (-1 if the predicate exceeded the CNF cap).
	Dropped int
	// DerivedKeys are candidate keys of the derived table (projected
	// attribute sets that functionally determine the whole projection),
	// computed from the derived FD set; nil when none were found.
	DerivedKeys [][]string
	// Trace records how the verdict was reached — binding provenance,
	// the closure, and the per-table key-coverage decisions — in
	// deterministic order, for EXPLAIN output. Nil only for verdicts
	// predating trace support (never for freshly computed ones).
	Trace *Trace
}

// String renders the verdict for diagnostics.
func (v *Verdict) String() string {
	if v.Unique {
		return fmt.Sprintf("UNIQUE (V=%v, keys=%v)", v.Bound, v.KeysUsed)
	}
	return fmt.Sprintf("NOT PROVEN UNIQUE (V=%v, missing %s)", v.Bound, v.MissingTable)
}

// Analyzer runs uniqueness analyses against a catalog. A verdict is a
// function of the catalog, the options and the query alone, so one
// analyzer may serve concurrent callers.
type Analyzer struct {
	Cat  *catalog.Catalog
	Opts Options
}

// NewAnalyzer returns an analyzer with paper-literal options.
func NewAnalyzer(cat *catalog.Catalog) *Analyzer {
	return &Analyzer{Cat: cat}
}

// AnalyzeSelect applies Algorithm 1 to a query specification: it
// answers whether the block's result is duplicate-free. outer is the
// enclosing scope for correlated subquery blocks (nil for top level).
func (a *Analyzer) AnalyzeSelect(s *ast.Select, outer *catalog.Scope) (*Verdict, error) {
	scope, err := catalog.NewScope(a.Cat, s.From, outer)
	if err != nil {
		return nil, err
	}
	refs, err := scope.ExpandItems(s.Items)
	if err != nil {
		return nil, err
	}
	proj := make([]string, len(refs))
	for i, r := range refs {
		proj[i] = r.Qualifier + "." + r.Column
	}
	return a.analyze(s, scope, proj)
}

// AtMostOneMatch applies Theorem 2's subquery-side condition: given
// the subquery block sub evaluated in the context of outer (whose
// columns act as constants), can more than one row of the subquery's
// Cartesian product qualify? It is exactly Algorithm 1 with an empty
// projection list: V starts from the constants alone.
func (a *Analyzer) AtMostOneMatch(sub *ast.Select, outer *catalog.Scope) (*Verdict, error) {
	scope, err := catalog.NewScope(a.Cat, sub.From, outer)
	if err != nil {
		return nil, err
	}
	return a.analyze(sub, scope, nil)
}

// analyze is the shared Algorithm-1 core: compute V from the
// projection plus predicate equalities, then test per-table key
// coverage. Alongside the verdict it records a deterministic Trace of
// every decision for EXPLAIN output.
func (a *Analyzer) analyze(s *ast.Select, scope *catalog.Scope, proj []string) (*Verdict, error) {
	v := &Verdict{KeysUsed: make(map[string][]string)}

	eq := a.extractEqualities(s.Where, scope)
	v.Dropped = eq.Dropped
	tr := &Trace{
		Projection:     append([]string(nil), proj...),
		KeyFDs:         a.Opts.UseKeyFDs,
		DroppedClauses: eq.Dropped,
		ConstCols:      sortedKeys(eq.ConstCols),
		NullCols:       sortedKeys(eq.NullCols),
	}
	v.Trace = tr
	if a.Opts.UseCheckConstraints {
		before := len(eq.ConstCols)
		a.importCheckEqualities(scope, &eq)
		if len(eq.ConstCols) > before {
			// The delta between the pre- and post-import constant sets
			// is exactly the CHECK-derived bindings.
			whereConsts := make(map[string]bool, len(tr.ConstCols))
			for _, c := range tr.ConstCols {
				whereConsts[c] = true
			}
			for _, c := range sortedKeys(eq.ConstCols) {
				if !whereConsts[c] {
					tr.CheckCols = append(tr.CheckCols, c)
				}
			}
		}
	}
	tr.EquivPairs = append([][2]string(nil), eq.Pairs...)
	sort.Slice(tr.EquivPairs, func(i, j int) bool {
		if tr.EquivPairs[i][0] != tr.EquivPairs[j][0] {
			return tr.EquivPairs[i][0] < tr.EquivPairs[j][0]
		}
		return tr.EquivPairs[i][1] < tr.EquivPairs[j][1]
	})

	// Dependency set: Type 1 constants, Type 2 equivalences, and —
	// with UseKeyFDs — the key dependencies of each FROM table.
	deps := fd.NewSet()
	for c := range eq.ConstCols {
		deps.AddConstant(c)
	}
	for c := range eq.NullCols {
		deps.AddConstant(c)
	}
	for _, p := range eq.Pairs {
		deps.AddEquiv(p[0], p[1])
	}
	fullDeps := deps.Clone() // always includes key FDs, for derived keys
	for _, st := range scope.Tables {
		corr := strings.ToUpper(st.Ref.Name())
		all := qualifyAll(corr, st.Schema)
		for _, k := range st.Schema.Keys {
			key := qualifyKey(corr, st.Schema, k)
			fullDeps.AddKey(key, all)
			if a.Opts.UseKeyFDs {
				deps.AddKey(key, all)
			}
		}
	}

	// V: closure of the projection under the dependency set
	// (Algorithm 1, lines 13–16 generalized).
	bound := deps.Closure(proj)
	v.Bound = norm.SortedColumns(bound)
	tr.Closure = v.Bound

	// Line 17: every FROM table must have some candidate key ⊆ V.
	// Algorithm 1 can stop at the first uncovered table; the trace
	// evaluates every table so EXPLAIN can show the full picture.
	for _, st := range scope.Tables {
		corr := strings.ToUpper(st.Ref.Name())
		tt := TableTrace{Corr: corr, Table: st.Schema.Name}
		for _, k := range st.Schema.Keys {
			tt.CandidateKeys = append(tt.CandidateKeys, qualifyKey(corr, st.Schema, k))
		}
		if len(st.Schema.Keys) == 0 {
			tt.Blocked = true
			tt.Reason = "no candidate key declared"
			if v.MissingTable == "" {
				v.MissingTable = corr + " (no candidate key)"
			}
			tr.Tables = append(tr.Tables, tt)
			continue
		}
		for _, key := range tt.CandidateKeys {
			if allBound(key, bound) {
				tt.SatisfiedBy = key
				v.KeysUsed[corr] = key
				break
			}
		}
		if tt.SatisfiedBy == nil {
			tt.Blocked = true
			tt.Reason = "no candidate key covered by V"
			if v.MissingTable == "" {
				v.MissingTable = corr
			}
		}
		tr.Tables = append(tr.Tables, tt)
	}
	if v.MissingTable != "" {
		return v, nil
	}
	v.Unique = true

	// Derived candidate keys of the result (Darwen-style reporting),
	// using the full dependency set projected onto the output columns.
	if len(proj) > 0 {
		projected := fullDeps.Project(dedupe(proj))
		v.DerivedKeys = projected.CandidateKeys(dedupe(proj), 8)
	}
	return v, nil
}

// AnalyzeQuery analyzes a query specification or a set operation. For
// set operations: INTERSECT and EXCEPT (DISTINCT variants) are always
// duplicate-free by definition; the ALL variants are duplicate-free
// when the relevant operand is (INTERSECT ALL if either operand is,
// EXCEPT ALL if the left operand is — counts are bounded by min and
// by j respectively).
func (a *Analyzer) AnalyzeQuery(q ast.Query) (*Verdict, error) {
	switch x := q.(type) {
	case *ast.Select:
		return a.AnalyzeSelect(x, nil)
	case *ast.SetOp:
		if !x.All {
			op := "INTERSECT"
			if x.Op == ast.Except {
				op = "EXCEPT"
			}
			return &Verdict{Unique: true, KeysUsed: map[string][]string{},
				Trace: &Trace{Note: op + " (DISTINCT) is duplicate-free by definition (Theorem 3 setting)"}}, nil
		}
		l, err := a.AnalyzeSelect(x.Left, nil)
		if err != nil {
			return nil, err
		}
		if x.Op == ast.Except {
			// EXCEPT ALL output counts are ≤ the left operand's.
			return &Verdict{Unique: l.Unique, Bound: l.Bound,
				KeysUsed: l.KeysUsed, MissingTable: l.MissingTable,
				Trace: l.Trace}, nil
		}
		if l.Unique {
			return l, nil
		}
		r, err := a.AnalyzeSelect(x.Right, nil)
		if err != nil {
			return nil, err
		}
		// INTERSECT ALL counts are min(j,k): unique if either side is.
		return &Verdict{Unique: r.Unique, Bound: r.Bound,
			KeysUsed: r.KeysUsed, MissingTable: r.MissingTable,
			Trace: r.Trace}, nil
	default:
		return nil, fmt.Errorf("core: unknown query node %T", q)
	}
}

// DistinctRedundant reports whether the query's DISTINCT clause can be
// dropped: the query specifies DISTINCT and Algorithm 1 proves the
// result duplicate-free without it.
func (a *Analyzer) DistinctRedundant(s *ast.Select) (bool, *Verdict, error) {
	if !s.Quant.IsDistinct() {
		return false, nil, nil
	}
	v, err := a.AnalyzeSelect(s, nil)
	if err != nil {
		return false, nil, err
	}
	return v.Unique, v, nil
}

// extractEqualities runs the CNF conversion and Type 1 / Type 2
// classification of norm.Extract under the analyzer's options.
func (a *Analyzer) extractEqualities(where ast.Expr, scope *catalog.Scope) norm.Equalities {
	return norm.Extract(where, scope, norm.ExtractOptions{BindIsNull: a.Opts.BindIsNull})
}

// importCheckEqualities adds ∅ → column bindings for CHECK
// constraints of the form column = constant (either operand order) on
// NOT NULL columns. A CHECK is true-interpreted, so on a nullable
// column the equality may be Unknown and the binding would be unsound.
func (a *Analyzer) importCheckEqualities(scope *catalog.Scope, eq *norm.Equalities) {
	for _, st := range scope.Tables {
		corr := strings.ToUpper(st.Ref.Name())
		for _, chk := range st.Schema.Checks {
			cmp, ok := chk.(*ast.Compare)
			if !ok || cmp.Op != ast.EqOp {
				continue
			}
			var colRef *ast.ColumnRef
			var constExpr ast.Expr
			if c, isCol := cmp.L.(*ast.ColumnRef); isCol && isLiteral(cmp.R) {
				colRef, constExpr = c, cmp.R
			} else if c, isCol := cmp.R.(*ast.ColumnRef); isCol && isLiteral(cmp.L) {
				colRef, constExpr = c, cmp.L
			} else {
				continue
			}
			col, found := st.Schema.Column(colRef.Column)
			if !found || !col.NotNull {
				continue
			}
			key := corr + "." + col.Name
			if _, dup := eq.ConstCols[key]; !dup {
				eq.ConstCols[key] = constExpr
			}
		}
	}
}

// isLiteral reports a literal constant (host variables are excluded:
// CHECKs cannot contain them, but be defensive).
func isLiteral(e ast.Expr) bool {
	switch e.(type) {
	case *ast.IntLit, *ast.StringLit, *ast.BoolLit:
		return true
	default:
		return false
	}
}

func qualifyAll(corr string, t *catalog.Table) []string {
	out := make([]string, len(t.Columns))
	for i, c := range t.Columns {
		out[i] = corr + "." + c.Name
	}
	return out
}

func qualifyKey(corr string, t *catalog.Table, k catalog.Key) []string {
	out := make([]string, len(k.Columns))
	for i, ci := range k.Columns {
		out[i] = corr + "." + t.Columns[ci].Name
	}
	return out
}

func allBound(cols []string, set map[string]bool) bool {
	for _, c := range cols {
		if !set[c] {
			return false
		}
	}
	return true
}

func dedupe(in []string) []string {
	out := slices.Clone(in)
	slices.Sort(out)
	return slices.Compact(out)
}
