package plan

import (
	"fmt"
	"strings"

	"uniqopt/internal/sql/ast"
	"uniqopt/internal/storage"
)

// Greedy, statistics-free join ordering driven by the same uniqueness
// reasoning the rest of the repo is built on. A join that probes a
// fully bound candidate key yields at most one row per outer row —
// the unary-key cardinality bound — so such probes are scheduled
// first; after them, tables made selective by visible predicates
// (constant- or host-variable-bound columns, then ranges) come before
// bare scans, and Cartesian products go last. Every decision depends
// only on the query shape and the schema, never on row counts, which
// is what lets a cached plan stay valid as the data changes.

// tableTerm is one FROM-list entry during planning: its pushed
// single-table conjuncts plus the constant equalities derived for it
// by deriveConstEqualities; all is the two together, and path the
// ordered-index access path they give the table (nil = a full scan).
type tableTerm struct {
	ref     ast.TableRef
	corr    string
	tbl     *storage.Table
	push    []ast.Expr
	derived []ast.Expr
	all     []ast.Expr
	path    *accessPlan
}

// orderedStep is one position in the chosen join order: the index into
// the written FROM list, for every table after the first the
// cardinality-bound note that justified the position (rendered by
// EXPLAIN on the join node that binds the table), and whether the
// position is a unique probe — a fully bound candidate key, so the
// join yields at most one row per outer row.
type orderedStep struct {
	idx    int
	bound  string
	unique bool
}

// columnEquality returns the two column references of a conjunct of the
// form column = column.
func columnEquality(c ast.Expr) (l, r *ast.ColumnRef, ok bool) {
	cmp, isCmp := c.(*ast.Compare)
	if !isCmp || cmp.Op != ast.EqOp {
		return nil, nil, false
	}
	l, lok := cmp.L.(*ast.ColumnRef)
	r, rok := cmp.R.(*ast.ColumnRef)
	return l, r, lok && rok
}

// deriveConstEqualities propagates constant and host-variable bindings
// across join equalities: S.SNO = P.SNO together with S.SNO = 7
// implies P.SNO = 7 on every qualifying row, because a row qualifies
// only when the whole conjunction evaluates TRUE — never UNKNOWN —
// which under three-valued logic forces both conjuncts TRUE. The
// synthesized equalities are appended to the target table's derived
// list so they sink below the join where access-path choice and pushed
// filters can use them; the original conjuncts stay in place.
func deriveConstEqualities(conjuncts []ast.Expr, terms []*tableTerm) {
	byCorr := make(map[string]*tableTerm, len(terms))
	for _, t := range terms {
		byCorr[t.corr] = t
	}
	// Union-find over the qualified columns joined by equality;
	// registration order makes the output deterministic.
	parent := map[string]string{}
	var order []string
	reg := func(k string) {
		if _, ok := parent[k]; !ok {
			parent[k] = k
			order = append(order, k)
		}
	}
	var find func(string) string
	find = func(k string) string {
		if parent[k] != k {
			parent[k] = find(parent[k])
		}
		return parent[k]
	}
	for _, c := range conjuncts {
		l, r, ok := columnEquality(c)
		if !ok {
			continue
		}
		lk := l.Qualifier + "." + l.Column
		rk := r.Qualifier + "." + r.Column
		reg(lk)
		reg(rk)
		parent[find(lk)] = find(rk)
	}
	if len(order) == 0 {
		return
	}
	// First constant binding per equivalence class wins; columns that
	// already carry a direct constant equality need no derived copy.
	bindings := map[string]ast.Expr{}
	direct := map[string]bool{}
	for _, c := range conjuncts {
		cmp, ok := c.(*ast.Compare)
		if !ok || cmp.Op != ast.EqOp {
			continue
		}
		ref, k, _ := normalizeComparison(cmp)
		if ref == nil {
			continue
		}
		key := ref.Qualifier + "." + ref.Column
		direct[key] = true
		if _, in := parent[key]; !in {
			continue
		}
		if r := find(key); bindings[r] == nil {
			bindings[r] = k
		}
	}
	for _, key := range order {
		b := bindings[find(key)]
		if b == nil || direct[key] {
			continue
		}
		dot := strings.IndexByte(key, '.')
		t := byCorr[key[:dot]]
		if t == nil {
			continue
		}
		t.derived = append(t.derived, &ast.Compare{Op: ast.EqOp,
			L: &ast.ColumnRef{Qualifier: key[:dot], Column: key[dot+1:]}, R: b})
	}
}

// constBindings returns the columns of t bound to a constant or host
// variable by an equality among its pushed or derived conjuncts, in
// conjunct order, with the binding conjunct's rendering per column.
func constBindings(t *tableTerm) (cols []string, srcByCol map[string]string) {
	srcByCol = map[string]string{}
	for _, e := range constEqualities(t.corr, t.all) {
		srcByCol[e.col] = t.all[e.at].SQL()
		cols = append(cols, e.col)
	}
	return cols, srcByCol
}

// hasRangeBound reports whether t has a pushed range predicate
// (comparison or BETWEEN against a constant) on one of its columns.
func hasRangeBound(t *tableTerm) bool {
	for _, c := range t.push {
		switch x := c.(type) {
		case *ast.Compare:
			ref, _, op := normalizeComparison(x)
			if ref == nil {
				continue
			}
			switch op {
			case ast.LtOp, ast.LeOp, ast.GtOp, ast.GeOp:
				return true
			}
		case *ast.Between:
			if !x.Negated && isConstExpr(x.Lo) && isConstExpr(x.Hi) {
				return true
			}
		}
	}
	return false
}

// coveringKey reports whether the bound columns cover a candidate key
// of t's schema (the verdict-style "all key columns bound" test). On
// success it returns the key's column names and, per key column, the
// rendering of the conjunct that bound it.
func coveringKey(t *tableTerm, boundSrc map[string]string) (keyCols, srcs []string, ok bool) {
	for _, k := range t.tbl.Schema.Keys {
		names := t.tbl.Schema.KeyColumnNames(k)
		srcs = srcs[:0]
		covered := true
		for _, cn := range names {
			s, bound := boundSrc[cn]
			if !bound {
				covered = false
				break
			}
			srcs = append(srcs, s)
		}
		if covered {
			return names, srcs, true
		}
	}
	return nil, nil, false
}

// startClass ranks a table as the start of the join order by its
// visible selectivity: 0 = a whole candidate key is constant-bound
// (at most one row survives the pushed filter), 1 = some column is
// constant-bound, 2 = range-bound, 3 = filtered at all — and each of
// 1–3 again, as 4–6, when no ordered index serves the bound and the
// table must be read whole to apply it — then 7 = bare. A constant on a
// column no index leads is a promise about what survives the filter,
// not about what is read: a range an index serves reads fewer rows.
func startClass(t *tableTerm) (int, string) {
	cols, src := constBindings(t)
	if kc, srcs, ok := coveringKey(t, src); ok {
		return 0, fmt.Sprintf("key (%s) bound by %s — at most one row",
			strings.Join(kc, ", "), strings.Join(srcs, ", "))
	}
	cl, why := 0, ""
	switch {
	case len(cols) > 0:
		cl, why = 1, "constant-bound "+strings.Join(cols, ", ")
	case hasRangeBound(t):
		cl, why = 2, "range-bound"
	case len(t.push) > 0:
		cl, why = 3, "filtered"
	default:
		return 7, "first in FROM"
	}
	if t.path == nil {
		return cl + 3, why
	}
	return cl, why + ", read through " + t.path.ix.Name
}

// chooseJoinOrder picks the left-deep join order greedily. The start
// table is the one with the most selective pushed predicate
// (startClass); each subsequent position prefers, in order, a table
// whose candidate key is fully bound by join equalities and constants
// (a unique probe: at most 1 row per outer row), then any
// equi-connected table (constant-filtered ones first), and only then a
// Cartesian product. Ties keep written order, so the ordering is
// deterministic and degrades to the written plan when nothing is
// known. The returned steps carry the per-position justification
// EXPLAIN renders; startTiny reports that the start table is bounded
// to at most one row by a constant-bound key, which lets the join
// construction build the (tiny) accumulated prefix as the hash side.
func (p *Planner) chooseJoinOrder(terms []*tableTerm, conjuncts []ast.Expr, used []bool) (steps []orderedStep, startNote string, startTiny bool) {
	n := len(terms)
	steps = make([]orderedStep, 0, n)
	if n < 2 || p.Opts.WrittenJoinOrder {
		for i := 0; i < n; i++ {
			steps = append(steps, orderedStep{idx: i})
		}
		return steps, "", false
	}
	pos := make(map[string]int, n)
	for i, t := range terms {
		pos[t.corr] = i
	}
	// Join graph: the unconsumed cross-table equality conjuncts.
	type edge struct {
		a, b             int
		aCol, bCol, sqlS string
	}
	var edges []edge
	for i, c := range conjuncts {
		if used[i] {
			continue
		}
		l, r, ok := columnEquality(c)
		if !ok {
			continue
		}
		ai, aok := pos[l.Qualifier]
		bi, bok := pos[r.Qualifier]
		if !aok || !bok || ai == bi {
			continue
		}
		edges = append(edges, edge{a: ai, b: bi, aCol: l.Column, bCol: r.Column, sqlS: c.SQL()})
	}

	placed := make([]bool, n)
	best, bestClass, bestWhy := 0, int(^uint(0)>>1), ""
	for i, t := range terms {
		if cl, why := startClass(t); cl < bestClass {
			best, bestClass, bestWhy = i, cl, why
		}
	}
	placed[best] = true
	steps = append(steps, orderedStep{idx: best})
	startNote = fmt.Sprintf("start %s: %s", terms[best].corr, bestWhy)
	startTiny = bestClass == 0

	for len(steps) < n {
		nextIdx, nextClass, nextWhy := -1, int(^uint(0)>>1), ""
		for i, t := range terms {
			if placed[i] {
				continue
			}
			// Columns of t bound by join equalities into the placed
			// prefix, plus its own constant bindings.
			var joinCols []string
			seen := map[string]bool{}
			boundSrc := map[string]string{}
			for _, e := range edges {
				var col, src string
				switch {
				case placed[e.a] && e.b == i:
					col, src = e.bCol, e.sqlS
				case placed[e.b] && e.a == i:
					col, src = e.aCol, e.sqlS
				default:
					continue
				}
				if seen[col] {
					continue
				}
				seen[col] = true
				joinCols = append(joinCols, col)
				boundSrc[col] = src
			}
			ccols, csrc := constBindings(t)
			for _, col := range ccols {
				if _, ok := boundSrc[col]; !ok {
					boundSrc[col] = csrc[col]
				}
			}
			var cl int
			var why string
			switch kc, srcs, keyBound := coveringKey(t, boundSrc); {
			case keyBound:
				cl = 0
				why = fmt.Sprintf("unique probe of %s: key (%s) bound by %s ⇒ at most 1 row per outer row",
					t.corr, strings.Join(kc, ", "), strings.Join(srcs, ", "))
			case len(joinCols) > 0 && len(ccols) > 0:
				cl = 1
				why = fmt.Sprintf("equi-join on %s, constant-bound %s; no key of %s fully bound",
					strings.Join(joinCols, ", "), strings.Join(ccols, ", "), t.corr)
			case len(joinCols) > 0:
				cl = 2
				why = fmt.Sprintf("equi-join on %s; no key of %s fully bound",
					strings.Join(joinCols, ", "), t.corr)
			default:
				scl, _ := startClass(t)
				cl = 10 + scl
				why = fmt.Sprintf("Cartesian: no predicate connects %s to the joined tables", t.corr)
			}
			if cl < nextClass {
				nextIdx, nextClass, nextWhy = i, cl, why
			}
		}
		placed[nextIdx] = true
		steps = append(steps, orderedStep{idx: nextIdx, bound: nextWhy, unique: nextClass == 0})
	}
	return steps, startNote, startTiny
}

// The two statistics-free rules that turn a join step into an index
// probe (indexJoinOp). Both read the query shape and the schema only, so
// the choice is part of the cached plan; what licenses each is a bound
// on rows touched that holds for any data:
//
//   - rule A (indexJoin): the accumulated prefix is index-bounded and
//     the step's join columns, with the new table's own constant
//     equalities, bind a leading prefix of one of its ordered indexes —
//     one seek per prefix row reads O(prefix) rows, where the hash join
//     reads the table;
//   - rule B (existenceOnly): a table of a DISTINCT block that
//     contributes no output column and is not a unique probe is, by the
//     uniqueness argument itself, the many side of its join — its rows
//     can only multiply the block's, and DISTINCT removes what they
//     multiply. It probes last and stops at the first match (Theorem 2
//     reversed, core.JoinToSubquery's extraction test).

// probeKey is what binds one leading index column of an index probe: the
// outer column named outer, or, when that is empty, a constant equality
// of the probed table.
type probeKey struct {
	outer string
	k     constEquality
}

// existenceProbe is one FROM table planSelect runs as a first-match
// probe: the index, per leading index column the outer column it is
// equated with, and the positions of the conjuncts that equate them.
type existenceProbe struct {
	t   *tableTerm
	ix  *storage.OrderedIndex
	key []probeKey
	eqs []int
}

// coveringIndex returns the first ordered index of t whose leading
// columns are bound — by bind, one probeKey per column, until it
// refuses — far enough to take in every one of the n join columns.
func coveringIndex(t *tableTerm, n int, bind func(col string) (probeKey, bool)) (*storage.OrderedIndex, []probeKey) {
	for _, ix := range t.tbl.OrderedIndexes() {
		var key []probeKey
		joins := 0
		boundPrefix(t.tbl, ix, func(col string) bool {
			pk, ok := bind(col)
			if ok {
				key = append(key, pk)
				if pk.outer != "" {
					joins++
				}
			}
			return ok
		})
		if joins == n {
			return ix, key
		}
	}
	return nil, nil
}

// indexProbe applies rule A to the step joining t on its qualified
// columns rk equal to the prefix's columns lk: the index to probe and its
// key, or nil when no ordered index of t takes in every join column (a
// column joined twice among them).
func indexProbe(t *tableTerm, lk, rk []string) (*storage.OrderedIndex, []probeKey) {
	joinCol := make(map[string]string, len(rk))
	for i, col := range rk {
		joinCol[strings.TrimPrefix(col, t.corr+".")] = lk[i]
	}
	if len(joinCol) < len(rk) {
		return nil, nil
	}
	consts := constEqualities(t.corr, t.all)
	return coveringIndex(t, len(rk), func(col string) (probeKey, bool) {
		if o, ok := joinCol[col]; ok {
			return probeKey{outer: o}, true
		}
		e, ok := constOn(consts, col)
		return probeKey{k: e}, ok
	})
}

// existenceOnly applies rule B to a DISTINCT block: it splits terms into
// the tables that stay in the join order and the existence-only ones,
// in written order. A table qualifies when it contributes none of the
// output columns refs, would otherwise be read whole, and every
// conjunct that mentions it either mentions nothing else (and is
// already pushed to it) or equates one of its columns with a column of
// one and the same joined table — a leaf of the join graph, so taking
// it out disconnects nothing — such that the equated columns are
// exactly a leading prefix of one of its ordered indexes and, with its
// constant equalities, cover none of its keys.
func existenceOnly(terms []*tableTerm, conjuncts []ast.Expr, refs []*ast.ColumnRef) (joined []*tableTerm, probes []existenceProbe) {
	projected := map[string]bool{}
	for _, r := range refs {
		projected[r.Qualifier] = true
	}
	deferred := map[string]bool{}
	for _, t := range terms {
		if !projected[t.corr] && t.path == nil {
			if pr, ok := existenceProbeOf(t, conjuncts, deferred); ok {
				deferred[t.corr] = true
				probes = append(probes, pr)
				continue
			}
		}
		joined = append(joined, t)
	}
	return joined, probes
}

// existenceProbeOf tests t's conjuncts against rule B. deferred names
// the tables already taken out of the join order: a table correlated
// with one of them stays in.
func existenceProbeOf(t *tableTerm, conjuncts []ast.Expr, deferred map[string]bool) (existenceProbe, bool) {
	pr := existenceProbe{t: t}
	joinCol := map[string]string{} // t's column → the outer column it equals
	outer := ""
	for i, c := range conjuncts {
		qs := qualifiersOf(c)
		if !qs[t.corr] {
			continue
		}
		if ast.HasExists(c) {
			return pr, false
		}
		if len(qs) == 1 {
			continue
		}
		mine, theirs, ok := columnEquality(c)
		if !ok {
			return pr, false
		}
		if mine.Qualifier != t.corr {
			mine, theirs = theirs, mine
		}
		if _, twice := joinCol[mine.Column]; twice || deferred[theirs.Qualifier] ||
			(outer != "" && theirs.Qualifier != outer) {
			return pr, false
		}
		outer = theirs.Qualifier
		joinCol[mine.Column] = outer + "." + theirs.Column
		pr.eqs = append(pr.eqs, i)
	}
	if len(joinCol) == 0 {
		return pr, false
	}
	pr.ix, pr.key = coveringIndex(t, len(joinCol), func(col string) (probeKey, bool) {
		o, ok := joinCol[col]
		return probeKey{outer: o}, ok
	})
	if pr.ix == nil {
		return pr, false
	}
	// A unique probe is not the many side: it stays a join (rule A's, if
	// its prefix is bounded), which emits each outer row at most once
	// anyway.
	_, boundSrc := constBindings(t)
	for col, o := range joinCol {
		boundSrc[col] = o
	}
	_, _, unique := coveringKey(t, boundSrc)
	return pr, !unique
}

// withoutProbes is the block s — qualified output columns refs, FROM
// list joined — less its existence-only tables and every conjunct that
// mentions one: the block whose duplicates decide whether DISTINCT is
// still needed once those tables only test existence.
func withoutProbes(s *ast.Select, joined []*tableTerm, probes []existenceProbe, conjuncts []ast.Expr, refs []*ast.ColumnRef) *ast.Select {
	out := &ast.Select{Quant: s.Quant}
	for _, r := range refs {
		out.Items = append(out.Items, ast.SelectItem{Expr: r})
	}
	for _, t := range joined {
		out.From = append(out.From, t.ref)
	}
	var keep []ast.Expr
conjunct:
	for _, c := range conjuncts {
		qs := qualifiersOf(c)
		for _, pr := range probes {
			if qs[pr.t.corr] {
				continue conjunct
			}
		}
		keep = append(keep, c)
	}
	out.Where = ast.AndAll(keep...)
	return out
}
