package ast

import "fmt"

// WalkExpr applies f to e and every sub-expression of e in pre-order.
// If f returns false the children of the current node are skipped.
// EXISTS subquery bodies are descended into (their WHERE clause),
// because correlation predicates live there.
func WalkExpr(e Expr, f func(Expr) bool) {
	if e == nil || !f(e) {
		return
	}
	switch x := e.(type) {
	case *Compare:
		WalkExpr(x.L, f)
		WalkExpr(x.R, f)
	case *Between:
		WalkExpr(x.X, f)
		WalkExpr(x.Lo, f)
		WalkExpr(x.Hi, f)
	case *InList:
		WalkExpr(x.X, f)
		for _, it := range x.List {
			WalkExpr(it, f)
		}
	case *IsNull:
		WalkExpr(x.X, f)
	case *Not:
		WalkExpr(x.X, f)
	case *And:
		WalkExpr(x.L, f)
		WalkExpr(x.R, f)
	case *Or:
		WalkExpr(x.L, f)
		WalkExpr(x.R, f)
	case *Exists:
		if x.Query != nil {
			WalkExpr(x.Query.Where, f)
		}
	case *InSubquery:
		WalkExpr(x.X, f)
		if x.Query != nil {
			WalkExpr(x.Query.Where, f)
		}
	}
}

// CloneExpr returns a deep copy of e.
func CloneExpr(e Expr) Expr {
	if e == nil {
		return nil
	}
	switch x := e.(type) {
	case *ColumnRef:
		c := *x
		return &c
	case *IntLit:
		c := *x
		return &c
	case *StringLit:
		c := *x
		return &c
	case *BoolLit:
		c := *x
		return &c
	case *NullLit:
		return &NullLit{}
	case *HostVar:
		c := *x
		return &c
	case *Compare:
		return &Compare{Op: x.Op, L: CloneExpr(x.L), R: CloneExpr(x.R)}
	case *Between:
		return &Between{X: CloneExpr(x.X), Lo: CloneExpr(x.Lo), Hi: CloneExpr(x.Hi), Negated: x.Negated}
	case *InList:
		list := make([]Expr, len(x.List))
		for i, it := range x.List {
			list[i] = CloneExpr(it)
		}
		return &InList{X: CloneExpr(x.X), List: list, Negated: x.Negated}
	case *IsNull:
		return &IsNull{X: CloneExpr(x.X), Negated: x.Negated}
	case *Not:
		return &Not{X: CloneExpr(x.X)}
	case *And:
		return &And{L: CloneExpr(x.L), R: CloneExpr(x.R)}
	case *Or:
		return &Or{L: CloneExpr(x.L), R: CloneExpr(x.R)}
	case *Exists:
		return &Exists{Query: CloneSelect(x.Query), Negated: x.Negated}
	case *InSubquery:
		return &InSubquery{X: CloneExpr(x.X), Query: CloneSelect(x.Query), Negated: x.Negated}
	default:
		panic(fmt.Sprintf("ast: CloneExpr: unknown expression %T", e))
	}
}

// CloneSelect returns a deep copy of s.
func CloneSelect(s *Select) *Select {
	if s == nil {
		return nil
	}
	out := &Select{Quant: s.Quant, Where: CloneExpr(s.Where)}
	out.Items = make([]SelectItem, len(s.Items))
	for i, it := range s.Items {
		out.Items[i] = SelectItem{Star: it.Star, StarQualifier: it.StarQualifier}
		if it.Expr != nil {
			out.Items[i].Expr = CloneExpr(it.Expr)
		}
	}
	out.From = append([]TableRef(nil), s.From...)
	return out
}

// CloneQuery returns a deep copy of q.
func CloneQuery(q Query) Query {
	switch x := q.(type) {
	case *Select:
		return CloneSelect(x)
	case *SetOp:
		return &SetOp{Op: x.Op, All: x.All, Left: CloneSelect(x.Left), Right: CloneSelect(x.Right)}
	default:
		panic(fmt.Sprintf("ast: CloneQuery: unknown query %T", q))
	}
}

// Conjuncts flattens nested ANDs into a slice of conjuncts. A nil
// expression yields an empty slice (the always-true predicate).
func Conjuncts(e Expr) []Expr {
	if e == nil {
		return nil
	}
	if a, ok := e.(*And); ok {
		return append(Conjuncts(a.L), Conjuncts(a.R)...)
	}
	return []Expr{e}
}

// Disjuncts flattens nested ORs into a slice of disjuncts.
func Disjuncts(e Expr) []Expr {
	if e == nil {
		return nil
	}
	if o, ok := e.(*Or); ok {
		return append(Disjuncts(o.L), Disjuncts(o.R)...)
	}
	return []Expr{e}
}

// AndAll combines es into a right-leaning AND chain; nil for empty.
func AndAll(es ...Expr) Expr {
	var out Expr
	for i := len(es) - 1; i >= 0; i-- {
		if es[i] == nil {
			continue
		}
		if out == nil {
			out = es[i]
		} else {
			out = &And{L: es[i], R: out}
		}
	}
	return out
}

// OrAll combines es into a right-leaning OR chain; nil for empty.
func OrAll(es ...Expr) Expr {
	var out Expr
	for i := len(es) - 1; i >= 0; i-- {
		if es[i] == nil {
			continue
		}
		if out == nil {
			out = es[i]
		} else {
			out = &Or{L: es[i], R: out}
		}
	}
	return out
}

// ColumnRefs returns every column reference in e, in pre-order,
// including those inside EXISTS subquery predicates.
func ColumnRefs(e Expr) []*ColumnRef {
	var out []*ColumnRef
	WalkExpr(e, func(x Expr) bool {
		if c, ok := x.(*ColumnRef); ok {
			out = append(out, c)
		}
		return true
	})
	return out
}

// HostVars returns every host variable in e, in pre-order.
func HostVars(e Expr) []*HostVar {
	var out []*HostVar
	WalkExpr(e, func(x Expr) bool {
		if h, ok := x.(*HostVar); ok {
			out = append(out, h)
		}
		return true
	})
	return out
}

// Subqueries returns the EXISTS and IN subquery blocks e evaluates, in
// order: not those nested inside them, which their own blocks evaluate.
func Subqueries(e Expr) []*Select {
	var out []*Select
	WalkExpr(e, func(x Expr) bool {
		switch x := x.(type) {
		case *Exists:
			out = append(out, x.Query)
		case *InSubquery:
			out = append(out, x.Query)
		default:
			return true
		}
		return false
	})
	return out
}

// HasExists reports whether e contains an EXISTS or IN-subquery
// predicate (anything requiring subquery evaluation).
func HasExists(e Expr) bool {
	found := false
	WalkExpr(e, func(x Expr) bool {
		switch x.(type) {
		case *Exists, *InSubquery:
			found = true
		}
		return !found
	})
	return found
}
