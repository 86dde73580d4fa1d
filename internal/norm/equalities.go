package norm

import (
	"sort"

	"uniqopt/internal/catalog"
	"uniqopt/internal/sql/ast"
)

// AtomKind classifies an atomic condition for Algorithm 1.
type AtomKind uint8

// Atom kinds. EqConst and EqCol are the paper's Type 1 and Type 2
// conditions; IsNullAtom supports the true-interpreted-predicate
// extension (a column forced to NULL agrees across all qualifying rows
// under ≐); Other covers everything Algorithm 1 discards.
const (
	Other AtomKind = iota
	EqConst
	EqCol
	IsNullAtom
)

// String names the atom kind.
func (k AtomKind) String() string {
	switch k {
	case EqConst:
		return "Type1(col=const)"
	case EqCol:
		return "Type2(col=col)"
	case IsNullAtom:
		return "IsNull"
	default:
		return "Other"
	}
}

// Atom is a classified atomic condition. Columns are canonical
// "CORRELATION.COLUMN" strings resolved at depth 0 of the given scope;
// a reference that resolves to an enclosing block is reported in
// OuterCols instead (it acts as a constant within the local block).
type Atom struct {
	Kind  AtomKind
	Col   string   // EqConst, IsNullAtom, EqCol (first column)
	Col2  string   // EqCol only (second column)
	Const ast.Expr // EqConst only: the literal or host variable
}

// Classify determines the Algorithm-1 type of a single leaf predicate
// with respect to scope. Equality between a local column and an outer
// block's column is Type 1 (the outer value is fixed for the duration
// of the local block — exactly how Theorem 2 treats correlation
// predicates). Equality with NULL is classified Other (it can never be
// satisfied and carries no binding).
func Classify(e ast.Expr, scope *catalog.Scope) Atom {
	switch x := e.(type) {
	case *ast.Compare:
		if x.Op != ast.EqOp {
			return Atom{Kind: Other}
		}
		lc, lIsLocal, lOK := resolveSide(x.L, scope)
		rc, rIsLocal, rOK := resolveSide(x.R, scope)
		lConst := isConstant(x.L)
		rConst := isConstant(x.R)
		switch {
		case lOK && lIsLocal && rConst:
			return Atom{Kind: EqConst, Col: lc, Const: x.R}
		case rOK && rIsLocal && lConst:
			return Atom{Kind: EqConst, Col: rc, Const: x.L}
		case lOK && lIsLocal && rOK && rIsLocal:
			return Atom{Kind: EqCol, Col: lc, Col2: rc}
		case lOK && lIsLocal && rOK && !rIsLocal:
			// local = outer-block column: the outer column is constant
			// within the local block.
			return Atom{Kind: EqConst, Col: lc, Const: x.R}
		case rOK && rIsLocal && lOK && !lIsLocal:
			return Atom{Kind: EqConst, Col: rc, Const: x.L}
		}
		return Atom{Kind: Other}
	case *ast.IsNull:
		if x.Negated {
			return Atom{Kind: Other}
		}
		if c, local, ok := resolveSide(x.X, scope); ok && local {
			return Atom{Kind: IsNullAtom, Col: c}
		}
		return Atom{Kind: Other}
	default:
		return Atom{Kind: Other}
	}
}

// resolveSide resolves an operand to a canonical column name. local
// reports whether it resolved at depth 0.
func resolveSide(e ast.Expr, scope *catalog.Scope) (col string, local, ok bool) {
	ref, isRef := e.(*ast.ColumnRef)
	if !isRef {
		return "", false, false
	}
	r, err := scope.Resolve(ref)
	if err != nil {
		return "", false, false
	}
	return r.Qualified(scope), r.Depth == 0, true
}

// isConstant reports whether e is a literal or host variable — a value
// fixed for the whole execution of the query block. NULL literals are
// excluded: v = NULL is never True and binds nothing.
func isConstant(e ast.Expr) bool {
	switch e.(type) {
	case *ast.IntLit, *ast.StringLit, *ast.BoolLit, *ast.HostVar:
		return true
	default:
		return false
	}
}

// Equalities is the binding information Algorithm 1 extracts from the
// conjunctive normal form of a predicate (lines 5–9): only unit
// clauses (non-disjunctive conjuncts) contribute.
type Equalities struct {
	// ConstCols are columns equated to a constant or host variable
	// (Type 1). Values are one witnessing constant expression.
	ConstCols map[string]ast.Expr
	// Pairs are Type 2 column-column equalities.
	Pairs [][2]string
	// NullCols are columns forced NULL by an IS NULL conjunct
	// (extension; only populated when opts.BindIsNull).
	NullCols map[string]bool
	// Dropped counts conjuncts Algorithm 1 discarded (non-equality
	// atoms and disjunctive clauses) — the measure of how much of the
	// predicate the sufficient condition ignores.
	Dropped int
}

// ExtractOptions tune the extraction.
type ExtractOptions struct {
	// BindIsNull enables the sound extension where an IS NULL conjunct
	// marks its column as agreeing across qualifying rows under ≐.
	// (Listed as future work — "transformations based on
	// true-interpreted predicates" — in the paper's Section 8.)
	BindIsNull bool
}

// DefaultMaxClauses caps the CNF conversion; beyond it the predicate is
// treated as contributing no equalities at all.
const DefaultMaxClauses = 256

// Extract computes the Type 1 / Type 2 equality information of
// predicate e. Disjunctive clauses and non-equality atoms are dropped,
// exactly as Algorithm 1 lines 6–9 prescribe. (Retaining per-disjunct
// information and testing each DNF term separately — as the paper's
// correctness argument sketches — is unsound in general; see the
// DISJUNCTION UNSOUNDNESS note in internal/core.)
func Extract(e ast.Expr, scope *catalog.Scope, opts ExtractOptions) Equalities {
	eq := Equalities{
		ConstCols: make(map[string]ast.Expr),
		NullCols:  make(map[string]bool),
	}
	if e == nil {
		return eq
	}
	clauses, err := CNF(e, DefaultMaxClauses)
	if err != nil {
		// Predicate too complex: contribute nothing (conservative).
		eq.Dropped = -1
		return eq
	}
	for _, cl := range clauses {
		if len(cl) != 1 {
			eq.Dropped++ // disjunctive clause, Algorithm 1 line 8
			continue
		}
		a := Classify(cl[0], scope)
		switch a.Kind {
		case EqConst:
			if _, dup := eq.ConstCols[a.Col]; !dup {
				eq.ConstCols[a.Col] = a.Const
			}
		case EqCol:
			if a.Col != a.Col2 {
				eq.Pairs = append(eq.Pairs, [2]string{a.Col, a.Col2})
			}
		case IsNullAtom:
			if opts.BindIsNull {
				eq.NullCols[a.Col] = true
			} else {
				eq.Dropped++
			}
		default:
			eq.Dropped++ // Algorithm 1 line 7
		}
	}
	return eq
}

// BoundColumns computes Algorithm 1's set V (lines 13–16): the
// projection columns, plus columns equated to constants, plus the
// transitive closure over column-column equalities, plus (with the
// extension) columns forced NULL.
func (eq Equalities) BoundColumns(projection []string) map[string]bool {
	v := make(map[string]bool, len(projection)+len(eq.ConstCols))
	for _, c := range projection {
		v[c] = true
	}
	for c := range eq.ConstCols {
		v[c] = true
	}
	for c := range eq.NullCols {
		v[c] = true
	}
	// Transitive closure over Type 2 equalities: iterate to fixpoint.
	for changed := true; changed; {
		changed = false
		for _, p := range eq.Pairs {
			switch {
			case v[p[0]] && !v[p[1]]:
				v[p[1]] = true
				changed = true
			case v[p[1]] && !v[p[0]]:
				v[p[0]] = true
				changed = true
			}
		}
	}
	return v
}

// SortedColumns returns the members of a column set in sorted order,
// for deterministic diagnostics.
func SortedColumns(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for c := range set {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}
