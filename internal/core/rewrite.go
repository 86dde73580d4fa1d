package core

import (
	"fmt"
	"strings"

	"uniqopt/internal/catalog"
	"uniqopt/internal/sql/ast"
)

// Rule identifies a rewrite rule.
type Rule string

// The rewrite rules implemented from the paper.
const (
	RuleEliminateDistinct    Rule = "eliminate-distinct"        // Theorem 1 / Algorithm 1
	RuleSubqueryToJoin       Rule = "subquery-to-join"          // Theorem 2
	RuleSubqueryToDistinct   Rule = "subquery-to-distinct-join" // Corollary 1
	RuleJoinToSubquery       Rule = "join-to-subquery"          // Section 6 (Theorem 2 reversed)
	RuleIntersectToExists    Rule = "intersect-to-exists"       // Theorem 3
	RuleIntersectAllToExists Rule = "intersect-all-to-exists"   // Corollary 2
	RuleExceptToNotExists    Rule = "except-to-not-exists"      // sketched in §5.3, implemented
	RuleExceptAllToNotExists Rule = "except-all-to-not-exists"  // sketched in §5.3, implemented
)

// Applied records one successful rewrite.
type Applied struct {
	Rule        Rule
	Description string
	Before      string // SQL before
	After       string // SQL after
	Query       ast.Query
}

// QualifyExpr deep-copies e with every column reference fully
// qualified by the correlation name of its owning scope. References to
// enclosing blocks keep their (outer) correlation names. Subquery
// bodies are qualified against their own derived scope.
func (a *Analyzer) QualifyExpr(e ast.Expr, scope *catalog.Scope) (ast.Expr, error) {
	if e == nil {
		return nil, nil
	}
	switch x := e.(type) {
	case *ast.ColumnRef:
		r, err := scope.Resolve(x)
		if err != nil {
			return nil, err
		}
		q := r.Qualified(scope)
		dot := strings.IndexByte(q, '.')
		return &ast.ColumnRef{Qualifier: q[:dot], Column: q[dot+1:], Pos: x.Pos}, nil
	case *ast.IntLit, *ast.StringLit, *ast.BoolLit, *ast.NullLit, *ast.HostVar:
		return ast.CloneExpr(e), nil
	case *ast.Compare:
		l, err := a.QualifyExpr(x.L, scope)
		if err != nil {
			return nil, err
		}
		r, err := a.QualifyExpr(x.R, scope)
		if err != nil {
			return nil, err
		}
		return &ast.Compare{Op: x.Op, L: l, R: r}, nil
	case *ast.Between:
		xx, err := a.QualifyExpr(x.X, scope)
		if err != nil {
			return nil, err
		}
		lo, err := a.QualifyExpr(x.Lo, scope)
		if err != nil {
			return nil, err
		}
		hi, err := a.QualifyExpr(x.Hi, scope)
		if err != nil {
			return nil, err
		}
		return &ast.Between{X: xx, Lo: lo, Hi: hi, Negated: x.Negated}, nil
	case *ast.InList:
		xx, err := a.QualifyExpr(x.X, scope)
		if err != nil {
			return nil, err
		}
		list := make([]ast.Expr, len(x.List))
		for i, it := range x.List {
			list[i], err = a.QualifyExpr(it, scope)
			if err != nil {
				return nil, err
			}
		}
		return &ast.InList{X: xx, List: list, Negated: x.Negated}, nil
	case *ast.IsNull:
		xx, err := a.QualifyExpr(x.X, scope)
		if err != nil {
			return nil, err
		}
		return &ast.IsNull{X: xx, Negated: x.Negated}, nil
	case *ast.Not:
		xx, err := a.QualifyExpr(x.X, scope)
		if err != nil {
			return nil, err
		}
		return &ast.Not{X: xx}, nil
	case *ast.And:
		l, err := a.QualifyExpr(x.L, scope)
		if err != nil {
			return nil, err
		}
		r, err := a.QualifyExpr(x.R, scope)
		if err != nil {
			return nil, err
		}
		return &ast.And{L: l, R: r}, nil
	case *ast.Or:
		l, err := a.QualifyExpr(x.L, scope)
		if err != nil {
			return nil, err
		}
		r, err := a.QualifyExpr(x.R, scope)
		if err != nil {
			return nil, err
		}
		return &ast.Or{L: l, R: r}, nil
	case *ast.Exists:
		subScope, err := catalog.NewScope(a.Cat, x.Query.From, scope)
		if err != nil {
			return nil, err
		}
		sub := ast.CloneSelect(x.Query)
		sub.Where, err = a.QualifyExpr(x.Query.Where, subScope)
		if err != nil {
			return nil, err
		}
		return &ast.Exists{Query: sub, Negated: x.Negated}, nil
	case *ast.InSubquery:
		xx, err := a.QualifyExpr(x.X, scope)
		if err != nil {
			return nil, err
		}
		subScope, err := catalog.NewScope(a.Cat, x.Query.From, scope)
		if err != nil {
			return nil, err
		}
		sub := ast.CloneSelect(x.Query)
		sub.Where, err = a.QualifyExpr(x.Query.Where, subScope)
		if err != nil {
			return nil, err
		}
		return &ast.InSubquery{X: xx, Query: sub, Negated: x.Negated}, nil
	default:
		return nil, fmt.Errorf("core: cannot qualify %T", e)
	}
}

// renameQualifiers deep-copies e replacing qualifier names per the map.
func renameQualifiers(e ast.Expr, renames map[string]string) ast.Expr {
	if e == nil || len(renames) == 0 {
		return ast.CloneExpr(e)
	}
	out := ast.CloneExpr(e)
	ast.WalkExpr(out, func(x ast.Expr) bool {
		if c, ok := x.(*ast.ColumnRef); ok {
			if nn, hit := renames[c.Qualifier]; hit {
				c.Qualifier = nn
			}
		}
		return true
	})
	return out
}

// freshAlias derives a correlation name not in taken.
func freshAlias(base string, taken map[string]bool) string {
	if !taken[base] {
		return base
	}
	for i := 1; ; i++ {
		cand := fmt.Sprintf("%s%d", base, i)
		if !taken[cand] {
			return cand
		}
	}
}

// qualifiedItems expands and qualifies the projection list of s.
func (a *Analyzer) qualifiedItems(s *ast.Select, scope *catalog.Scope) ([]ast.SelectItem, []*ast.ColumnRef, error) {
	refs, err := scope.ExpandItems(s.Items)
	if err != nil {
		return nil, nil, err
	}
	items := make([]ast.SelectItem, len(refs))
	for i, r := range refs {
		items[i] = ast.SelectItem{Expr: &ast.ColumnRef{Qualifier: r.Qualifier, Column: r.Column}}
	}
	return items, refs, nil
}

// EliminateDistinct applies Theorem 1: if the query specifies DISTINCT
// and Algorithm 1 proves the result duplicate-free, return a copy with
// the DISTINCT dropped.
func (a *Analyzer) EliminateDistinct(s *ast.Select) (*Applied, error) {
	redundant, v, err := a.DistinctRedundant(s)
	if err != nil {
		return nil, err
	}
	if !redundant {
		return nil, nil
	}
	out := ast.CloneSelect(s)
	out.Quant = ast.QuantAll
	return &Applied{
		Rule: RuleEliminateDistinct,
		Description: fmt.Sprintf("DISTINCT is redundant: %s", strings.Join(
			describeKeys(v.KeysUsed), "; ")),
		Before: s.SQL(),
		After:  out.SQL(),
		Query:  out,
	}, nil
}

func describeKeys(keys map[string][]string) []string {
	names := sortedKeys(keys)
	out := make([]string, len(names))
	for i, corr := range names {
		out[i] = fmt.Sprintf("key of %s (%s) is bound", corr, strings.Join(keys[corr], ", "))
	}
	return out
}

// SubqueryToJoin applies Theorem 2 and Corollary 1: merge the first
// positive EXISTS conjunct of s into the outer block as a join. The
// rewrite fires when (in order of preference)
//
//  1. the outer query already specifies DISTINCT (always valid),
//  2. the subquery block matches at most one row per outer row
//     (Theorem 2 — keeps the outer ALL),
//  3. the outer block alone is duplicate-free, in which case the merge
//     adds DISTINCT (Corollary 1).
//
// A nil result with nil error means the rule does not apply.
func (a *Analyzer) SubqueryToJoin(s *ast.Select) (*Applied, error) {
	conj := ast.Conjuncts(s.Where)
	exIdx := -1
	for i, c := range conj {
		if ex, ok := c.(*ast.Exists); ok && !ex.Negated {
			exIdx = i
			break
		}
	}
	if exIdx < 0 {
		return nil, nil
	}
	ex := conj[exIdx].(*ast.Exists)
	sub := ex.Query

	outerScope, err := catalog.NewScope(a.Cat, s.From, nil)
	if err != nil {
		return nil, err
	}
	subScope, err := catalog.NewScope(a.Cat, sub.From, outerScope)
	if err != nil {
		return nil, err
	}

	// Decide validity mode.
	var rule Rule
	var desc string
	quant := s.Quant
	switch {
	case s.Quant.IsDistinct():
		rule = RuleSubqueryToJoin
		desc = "outer projection is DISTINCT: merge is always valid"
	default:
		sv, err := a.AtMostOneMatch(sub, outerScope)
		if err != nil {
			return nil, err
		}
		if sv.Unique {
			rule = RuleSubqueryToJoin
			desc = fmt.Sprintf("subquery matches at most one row (Theorem 2): %s",
				strings.Join(describeKeys(sv.KeysUsed), "; "))
			break
		}
		// Corollary 1: outer block alone duplicate-free?
		rest := make([]ast.Expr, 0, len(conj)-1)
		for i, c := range conj {
			if i != exIdx {
				rest = append(rest, c)
			}
		}
		outerOnly := ast.CloneSelect(s)
		outerOnly.Where = ast.AndAll(cloneAll(rest)...)
		ov, err := a.AnalyzeSelect(outerOnly, nil)
		if err != nil {
			return nil, err
		}
		if !ov.Unique {
			return nil, nil
		}
		rule = RuleSubqueryToDistinct
		quant = ast.QuantDistinct
		desc = fmt.Sprintf("outer block is duplicate-free (Corollary 1): %s; merge adds DISTINCT",
			strings.Join(describeKeys(ov.KeysUsed), "; "))
	}

	// Qualify predicates before merging scopes.
	var outerPreds []ast.Expr
	for i, c := range conj {
		if i == exIdx {
			continue
		}
		q, err := a.QualifyExpr(c, outerScope)
		if err != nil {
			return nil, err
		}
		outerPreds = append(outerPreds, q)
	}
	subWhere, err := a.QualifyExpr(sub.Where, subScope)
	if err != nil {
		return nil, err
	}

	// Rename subquery correlation names that collide with the outer's.
	taken := make(map[string]bool)
	for _, tr := range s.From {
		taken[strings.ToUpper(tr.Name())] = true
	}
	renames := make(map[string]string)
	mergedFrom := append([]ast.TableRef(nil), s.From...)
	for _, tr := range sub.From {
		name := strings.ToUpper(tr.Name())
		alias := freshAlias(name, taken)
		taken[alias] = true
		if alias != name {
			renames[name] = alias
		}
		mergedFrom = append(mergedFrom, ast.TableRef{Table: tr.Table, Alias: alias})
	}
	subWhere = renameQualifiers(subWhere, renames)

	items, _, err := a.qualifiedItems(s, outerScope)
	if err != nil {
		return nil, err
	}
	out := &ast.Select{
		Quant: quant,
		Items: items,
		From:  mergedFrom,
		Where: ast.AndAll(append(outerPreds, ast.Conjuncts(subWhere)...)...),
	}
	return &Applied{
		Rule:        rule,
		Description: desc,
		Before:      s.SQL(),
		After:       out.SQL(),
		Query:       out,
	}, nil
}

// JoinToSubquery applies Theorem 2 in reverse (Section 6): extract a
// FROM table that contributes no projection columns into a positive
// EXISTS subquery. Valid when the outer query is DISTINCT, or when the
// extracted block matches at most one row per remaining row (so ALL
// multiplicities are unchanged). A nil result with nil error means the
// rule does not apply.
func (a *Analyzer) JoinToSubquery(s *ast.Select) (*Applied, error) {
	if len(s.From) < 2 {
		return nil, nil
	}
	scope, err := catalog.NewScope(a.Cat, s.From, nil)
	if err != nil {
		return nil, err
	}
	items, refs, err := a.qualifiedItems(s, scope)
	if err != nil {
		return nil, err
	}
	projected := make(map[string]bool)
	for _, r := range refs {
		projected[r.Qualifier] = true
	}
	// Qualify conjuncts once.
	var preds []ast.Expr
	for _, c := range ast.Conjuncts(s.Where) {
		q, err := a.QualifyExpr(c, scope)
		if err != nil {
			return nil, err
		}
		preds = append(preds, q)
	}

	// Try each non-projected table as the extraction candidate.
	for i, tr := range s.From {
		inner := strings.ToUpper(tr.Name())
		if projected[inner] {
			continue
		}
		var innerPreds, outerPreds []ast.Expr
		movable := true
		for _, p := range preds {
			qs := qualifiersOf(p)
			if qs[inner] {
				if ast.HasExists(p) {
					movable = false // don't nest an EXISTS inside the new subquery
					break
				}
				innerPreds = append(innerPreds, p)
			} else {
				outerPreds = append(outerPreds, p)
			}
		}
		if !movable {
			continue
		}
		remaining := make([]ast.TableRef, 0, len(s.From)-1)
		for j, o := range s.From {
			if j != i {
				remaining = append(remaining, o)
			}
		}
		sub := &ast.Select{
			Quant: ast.QuantDefault,
			Items: []ast.SelectItem{{Star: true}},
			From:  []ast.TableRef{tr},
			Where: ast.AndAll(cloneAll(innerPreds)...),
		}
		rule := RuleJoinToSubquery
		desc := ""
		if !s.Quant.IsDistinct() {
			remScope, err := catalog.NewScope(a.Cat, remaining, nil)
			if err != nil {
				return nil, err
			}
			sv, err := a.AtMostOneMatch(sub, remScope)
			if err != nil {
				return nil, err
			}
			if !sv.Unique {
				continue
			}
			desc = fmt.Sprintf("table %s matches at most one row per outer row (Theorem 2): %s",
				inner, strings.Join(describeKeys(sv.KeysUsed), "; "))
		} else {
			desc = fmt.Sprintf("outer projection is DISTINCT: extracting %s preserves semantics", inner)
		}
		out := &ast.Select{
			Quant: s.Quant,
			Items: items,
			From:  remaining,
			Where: ast.AndAll(append(cloneAll(outerPreds), &ast.Exists{Query: sub})...),
		}
		return &Applied{
			Rule:        rule,
			Description: desc,
			Before:      s.SQL(),
			After:       out.SQL(),
			Query:       out,
		}, nil
	}
	return nil, nil
}

// qualifiersOf collects the qualifier names referenced by e (assumed
// fully qualified).
func qualifiersOf(e ast.Expr) map[string]bool {
	out := make(map[string]bool)
	for _, c := range ast.ColumnRefs(e) {
		out[c.Qualifier] = true
	}
	return out
}

func cloneAll(es []ast.Expr) []ast.Expr {
	out := make([]ast.Expr, len(es))
	for i, e := range es {
		out[i] = ast.CloneExpr(e)
	}
	return out
}

// SetOpToExists applies Theorem 3 (INTERSECT → EXISTS), Corollary 2
// (INTERSECT ALL → EXISTS), and the EXCEPT [ALL] → NOT EXISTS
// extension the paper sketches in §5.3. The probe side must be
// duplicate-free; for INTERSECT the operands are swapped when only the
// right side qualifies (intersection is commutative; EXCEPT is not).
// The correlation predicate is NULL-aware — (L IS NULL AND R IS NULL)
// OR L = R per projection column — except where both columns are
// declared NOT NULL, in which case plain equality suffices (the
// paper's footnote 1).
func (a *Analyzer) SetOpToExists(so *ast.SetOp) (*Applied, error) {
	left, right := so.Left, so.Right
	lv, err := a.AnalyzeSelect(left, nil)
	if err != nil {
		return nil, err
	}
	swapped := false
	if !lv.Unique {
		if so.Op == ast.Except {
			return nil, nil // EXCEPT requires the left side duplicate-free
		}
		rv, err := a.AnalyzeSelect(right, nil)
		if err != nil {
			return nil, err
		}
		if !rv.Unique {
			return nil, nil
		}
		left, right = right, left
		lv = rv
		swapped = true
	}

	var rule Rule
	negated := so.Op == ast.Except
	switch {
	case so.Op == ast.Intersect && !so.All:
		rule = RuleIntersectToExists
	case so.Op == ast.Intersect && so.All:
		rule = RuleIntersectAllToExists
	case so.Op == ast.Except && !so.All:
		rule = RuleExceptToNotExists
	default:
		rule = RuleExceptAllToNotExists
	}

	leftScope, err := catalog.NewScope(a.Cat, left.From, nil)
	if err != nil {
		return nil, err
	}
	rightScope, err := catalog.NewScope(a.Cat, right.From, nil)
	if err != nil {
		return nil, err
	}
	leftItems, leftRefs, err := a.qualifiedItems(left, leftScope)
	if err != nil {
		return nil, err
	}
	rightRefs, err := rightScope.ExpandItems(right.Items)
	if err != nil {
		return nil, err
	}
	if len(leftRefs) != len(rightRefs) {
		return nil, fmt.Errorf("core: set operands are not union-compatible (%d vs %d columns)",
			len(leftRefs), len(rightRefs))
	}

	leftWhere, err := a.QualifyExpr(left.Where, leftScope)
	if err != nil {
		return nil, err
	}
	rightWhere, err := a.QualifyExpr(right.Where, rightScope)
	if err != nil {
		return nil, err
	}

	// Rename right-side correlation names that collide with the left.
	taken := make(map[string]bool)
	for _, tr := range left.From {
		taken[strings.ToUpper(tr.Name())] = true
	}
	renames := make(map[string]string)
	subFrom := make([]ast.TableRef, 0, len(right.From))
	for _, tr := range right.From {
		name := strings.ToUpper(tr.Name())
		alias := freshAlias(name, taken)
		taken[alias] = true
		if alias != name {
			renames[name] = alias
		}
		subFrom = append(subFrom, ast.TableRef{Table: tr.Table, Alias: alias})
	}
	rightWhere = renameQualifiers(rightWhere, renames)

	// Correlation predicates, NULL-aware where necessary.
	nullAware := 0
	corr := make([]ast.Expr, len(leftRefs))
	for i := range leftRefs {
		lRef := &ast.ColumnRef{Qualifier: leftRefs[i].Qualifier, Column: leftRefs[i].Column}
		rq := rightRefs[i].Qualifier
		if nn, hit := renames[rq]; hit {
			rq = nn
		}
		rRef := &ast.ColumnRef{Qualifier: rq, Column: rightRefs[i].Column}
		if columnNotNull(a.Cat, leftScope, leftRefs[i]) && columnNotNull(a.Cat, rightScope, rightRefs[i]) {
			corr[i] = &ast.Compare{Op: ast.EqOp, L: rRef, R: ast.CloneExpr(lRef)}
			continue
		}
		nullAware++
		corr[i] = &ast.Or{
			L: &ast.And{
				L: &ast.IsNull{X: rRef},
				R: &ast.IsNull{X: ast.CloneExpr(lRef)},
			},
			R: &ast.Compare{Op: ast.EqOp,
				L: ast.CloneExpr(rRef).(*ast.ColumnRef),
				R: ast.CloneExpr(lRef)},
		}
	}

	sub := &ast.Select{
		Quant: ast.QuantDefault,
		Items: []ast.SelectItem{{Star: true}},
		From:  subFrom,
		Where: ast.AndAll(append(ast.Conjuncts(rightWhere), corr...)...),
	}
	out := &ast.Select{
		Quant: ast.QuantAll,
		Items: leftItems,
		From:  append([]ast.TableRef(nil), left.From...),
		Where: ast.AndAll(append(ast.Conjuncts(leftWhere), &ast.Exists{Query: sub, Negated: negated})...),
	}
	desc := fmt.Sprintf("probe side is duplicate-free (%s); %d NULL-aware correlation predicate(s)",
		strings.Join(describeKeys(lv.KeysUsed), "; "), nullAware)
	if swapped {
		desc += "; operands swapped (INTERSECT is commutative)"
	}
	return &Applied{
		Rule:        rule,
		Description: desc,
		Before:      so.SQL(),
		After:       out.SQL(),
		Query:       out,
	}, nil
}

// columnNotNull reports whether a projected column is declared NOT
// NULL in its base table.
func columnNotNull(cat *catalog.Catalog, scope *catalog.Scope, ref *ast.ColumnRef) bool {
	r, err := scope.Resolve(ref)
	if err != nil {
		return false
	}
	return r.Table.Columns[r.ColIdx].NotNull
}

// Suggest runs every applicable rewrite rule against q and returns the
// transformations found. Each Applied result is independent (applied
// to the original query, not chained).
func (a *Analyzer) Suggest(q ast.Query) ([]Applied, error) {
	var out []Applied
	switch x := q.(type) {
	case *ast.Select:
		if ap, err := a.EliminateDistinct(x); err != nil {
			return nil, err
		} else if ap != nil {
			out = append(out, *ap)
		}
		if ap, err := a.InToExists(x); err != nil {
			return nil, err
		} else if ap != nil {
			out = append(out, *ap)
		}
		if ap, err := a.SubqueryToJoin(x); err != nil {
			return nil, err
		} else if ap != nil {
			out = append(out, *ap)
		}
		if ap, err := a.EliminateJoin(x); err != nil {
			return nil, err
		} else if ap != nil {
			out = append(out, *ap)
		}
		if ap, err := a.JoinToSubquery(x); err != nil {
			return nil, err
		} else if ap != nil {
			out = append(out, *ap)
		}
	case *ast.SetOp:
		if ap, err := a.SetOpToExists(x); err != nil {
			return nil, err
		} else if ap != nil {
			out = append(out, *ap)
		}
	default:
		return nil, fmt.Errorf("core: unknown query node %T", q)
	}
	return out, nil
}
