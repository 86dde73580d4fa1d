// Package norm normalizes WHERE-clause predicates for the uniqueness
// analysis of Paulley & Larson (ICDE 1994).
//
// Algorithm 1 of the paper operates on a conjunctive normal form of
// the query predicate and classifies atomic conditions into:
//
//	Type 1:  v = c      (column = constant or host variable)
//	Type 2:  v1 = v2    (column = column)
//
// This package provides negation normal form (NNF) with BETWEEN/IN
// expansion, CNF conversion with an explicit size cap (the conversion
// is exponential in the worst case; the cap makes the analyzer fail
// conservatively instead of blowing up), atomic-condition
// classification, and the transitive-closure computation over Type 2
// equalities (Algorithm 1, lines 13–16).
package norm

import (
	"fmt"

	"uniqopt/internal/sql/ast"
)

// NNF rewrites e into negation normal form: NOT is pushed onto atoms
// (flipping comparison operators and IS NULL / BETWEEN / IN / EXISTS
// negation flags), double negation is removed, and BETWEEN and IN are
// expanded into comparisons. The input is not modified.
//
// All rewrites are exact under SQL's three-valued logic:
// NOT (a = b) ≡ a <> b (both Unknown on NULL), De Morgan's laws hold
// in Kleene logic, and X BETWEEN L AND H ≡ X >= L AND X <= H.
func NNF(e ast.Expr) ast.Expr {
	return nnf(e, false)
}

func nnf(e ast.Expr, negate bool) ast.Expr {
	switch x := e.(type) {
	case *ast.Not:
		return nnf(x.X, !negate)
	case *ast.And:
		l, r := nnf(x.L, negate), nnf(x.R, negate)
		if negate {
			return &ast.Or{L: l, R: r}
		}
		return &ast.And{L: l, R: r}
	case *ast.Or:
		l, r := nnf(x.L, negate), nnf(x.R, negate)
		if negate {
			return &ast.And{L: l, R: r}
		}
		return &ast.Or{L: l, R: r}
	case *ast.Compare:
		op := x.Op
		if negate {
			op = negateOp(op)
		}
		return &ast.Compare{Op: op, L: ast.CloneExpr(x.L), R: ast.CloneExpr(x.R)}
	case *ast.Between:
		// X BETWEEN lo AND hi ≡ X >= lo AND X <= hi; negation flips it
		// into X < lo OR X > hi. The Negated field composes with the
		// incoming negation.
		neg := x.Negated != negate
		xx1, xx2 := ast.CloneExpr(x.X), ast.CloneExpr(x.X)
		lo, hi := ast.CloneExpr(x.Lo), ast.CloneExpr(x.Hi)
		if neg {
			return &ast.Or{
				L: &ast.Compare{Op: ast.LtOp, L: xx1, R: lo},
				R: &ast.Compare{Op: ast.GtOp, L: xx2, R: hi},
			}
		}
		return &ast.And{
			L: &ast.Compare{Op: ast.GeOp, L: xx1, R: lo},
			R: &ast.Compare{Op: ast.LeOp, L: xx2, R: hi},
		}
	case *ast.InList:
		// X IN (a, b, ...) ≡ X = a OR X = b OR ...; negation gives the
		// conjunction of <>.
		neg := x.Negated != negate
		var parts []ast.Expr
		for _, item := range x.List {
			op := ast.EqOp
			if neg {
				op = ast.NeOp
			}
			parts = append(parts, &ast.Compare{
				Op: op, L: ast.CloneExpr(x.X), R: ast.CloneExpr(item)})
		}
		if neg {
			return ast.AndAll(parts...)
		}
		return ast.OrAll(parts...)
	case *ast.IsNull:
		// IS [NOT] NULL is two-valued; NOT flips the flag exactly.
		return &ast.IsNull{X: ast.CloneExpr(x.X), Negated: x.Negated != negate}
	case *ast.Exists:
		return &ast.Exists{Query: ast.CloneSelect(x.Query), Negated: x.Negated != negate}
	case *ast.InSubquery:
		return &ast.InSubquery{X: ast.CloneExpr(x.X),
			Query: ast.CloneSelect(x.Query), Negated: x.Negated != negate}
	case *ast.BoolLit:
		return &ast.BoolLit{V: x.V != negate}
	default:
		// Literals, column refs, host vars: negation of a non-boolean
		// leaf cannot occur in well-formed input; clone defensively.
		c := ast.CloneExpr(e)
		if negate {
			return &ast.Not{X: c}
		}
		return c
	}
}

func negateOp(op ast.CompareOp) ast.CompareOp {
	switch op {
	case ast.EqOp:
		return ast.NeOp
	case ast.NeOp:
		return ast.EqOp
	case ast.LtOp:
		return ast.GeOp
	case ast.LeOp:
		return ast.GtOp
	case ast.GtOp:
		return ast.LeOp
	case ast.GeOp:
		return ast.LtOp
	default:
		return op
	}
}

// Clause is a disjunction of leaf expressions. A clause of length one
// is an atomic condition.
type Clause []ast.Expr

// ErrTooLarge is returned when a normal-form conversion exceeds its
// size cap. Callers treat it as "don't know" and proceed without the
// normalized form.
var ErrTooLarge = fmt.Errorf("norm: normal form exceeds size cap")

// CNF converts e (after NNF) into a conjunction of clauses. maxClauses
// bounds the result; conversion beyond the bound returns ErrTooLarge.
// A nil input yields an empty conjunction (TRUE).
func CNF(e ast.Expr, maxClauses int) ([]Clause, error) {
	if e == nil {
		return nil, nil
	}
	return cnf(NNF(e), maxClauses)
}

func cnf(e ast.Expr, maxClauses int) ([]Clause, error) {
	switch x := e.(type) {
	case *ast.And:
		l, err := cnf(x.L, maxClauses)
		if err != nil {
			return nil, err
		}
		r, err := cnf(x.R, maxClauses)
		if err != nil {
			return nil, err
		}
		if len(l)+len(r) > maxClauses {
			return nil, ErrTooLarge
		}
		return append(l, r...), nil
	case *ast.Or:
		// CNF(A ∨ B) = { la ∪ lb : la ∈ CNF(A), lb ∈ CNF(B) }.
		l, err := cnf(x.L, maxClauses)
		if err != nil {
			return nil, err
		}
		r, err := cnf(x.R, maxClauses)
		if err != nil {
			return nil, err
		}
		if len(l)*len(r) > maxClauses {
			return nil, ErrTooLarge
		}
		out := make([]Clause, 0, len(l)*len(r))
		for _, la := range l {
			for _, lb := range r {
				cl := make(Clause, 0, len(la)+len(lb))
				cl = append(cl, la...)
				cl = append(cl, lb...)
				out = append(out, cl)
			}
		}
		return out, nil
	default:
		return []Clause{{e}}, nil
	}
}

// SQLClauses renders clauses for diagnostics.
func SQLClauses(cs []Clause) string {
	if len(cs) == 0 {
		return "TRUE"
	}
	s := ""
	for i, c := range cs {
		if i > 0 {
			s += " AND "
		}
		if len(c) == 1 {
			s += c[0].SQL()
			continue
		}
		s += "(" + ast.OrAll(c...).SQL() + ")"
	}
	return s
}
