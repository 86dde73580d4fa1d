package core

import (
	"fmt"
	"slices"
	"strings"

	"uniqopt/internal/catalog"
	"uniqopt/internal/eval"
	"uniqopt/internal/sql/ast"
	"uniqopt/internal/tvl"
	"uniqopt/internal/value"
)

// Domains assigns finite candidate-value sets to columns and host
// variables for the exact checks. Column keys are canonical
// "CORRELATION.COLUMN" names.
type Domains struct {
	Cols  map[string][]value.Value
	Hosts map[string][]value.Value
}

// Witness is a counterexample: two different qualifying rows, under a
// particular host-variable assignment.
type Witness struct {
	Hosts  map[string]value.Value
	R1, R2 map[string]value.Value
}

// String renders the witness.
func (w *Witness) String() string {
	return fmt.Sprintf("hosts=%v r=%v r'=%v", w.Hosts, w.R1, w.R2)
}

// ErrTooManyCombinations is returned when the bounded enumeration
// would exceed the configured cap — the practical face of the
// NP-completeness the paper notes for testing Theorem 1 directly.
var ErrTooManyCombinations = fmt.Errorf("core: exact check exceeds combination cap")

// ExactUniqueness decides Theorem 1's condition over the given finite
// domains: are there two different rows of Domain(R × S), each passing
// its tables' NOT NULL and CHECK constraints (true-interpreted, what
// storage admits) and the query predicate under some host assignment
// (false-interpreted, the WHERE semantics), that respect every key
// dependency pairwise and agree on the projection under ≐? If so the
// query can produce duplicates and the result is (false, witness);
// otherwise (true, nil).
//
// maxCombos caps |host assignments| × |candidate rows|; exceeding it
// returns ErrTooManyCombinations. The cost is exponential in the number
// of columns — this is the exact test the paper replaces with
// Algorithm 1, and experiment E7 measures the gap.
func (a *Analyzer) ExactUniqueness(s *ast.Select, d Domains, maxCombos int) (bool, *Witness, error) {
	return a.exact(nil, s, s.Items, d, maxCombos)
}

// exact is the one bounded-domain enumerator: under some host
// assignment, can two different qualifying rows of the varying tables
// (s's) agree on items under ≐ for one row of the fixed tables (fixed's)
// and coexist under the varying tables' keys? The cap is checked as the
// product of host assignments and table rows grows. Theorem 1 asks it
// with nothing fixed and the SELECT list; Theorem 2, with the outer
// block's tables fixed — constants in the subquery, as the theorem's
// quantifiers prescribe — and nothing projected.
func (a *Analyzer) exact(fixed *catalog.Scope, s *ast.Select, items []ast.SelectItem, d Domains, maxCombos int) (bool, *Witness, error) {
	if ast.HasExists(s.Where) {
		return false, nil, fmt.Errorf("core: exact check does not support EXISTS predicates")
	}
	scope, err := catalog.NewScope(a.Cat, s.From, fixed)
	if err != nil {
		return false, nil, err
	}
	refs, err := scope.ExpandItems(items)
	if err != nil {
		return false, nil, err
	}

	// The combined layout: the fixed tables' columns, then the varying
	// tables'. A fixed column is compared like a projected one; each
	// varying table contributes its keys, as ordinals of the layout.
	var layout []string
	var rows [][]value.Row
	var proj, sig []int
	type key struct {
		cols   []int
		lo, hi int // the owning table's columns
	}
	var keys []key
	tables, nFixed := scope.Tables, 0
	if fixed != nil {
		tables = append(slices.Clone(fixed.Tables), tables...)
	}
	for i, st := range tables {
		corr, lo := strings.ToUpper(st.Ref.Name()), len(layout)
		for _, c := range st.Schema.Columns {
			layout = append(layout, corr+"."+c.Name)
		}
		if i < len(tables)-len(scope.Tables) {
			for ; nFixed < len(layout); nFixed++ {
				proj = append(proj, nFixed)
			}
		} else if len(st.Schema.Keys) == 0 {
			// Theorem 1 requires a candidate key per table; without
			// one the exact condition cannot hold in general.
			return false, nil, fmt.Errorf("core: table %s has no candidate key", corr)
		} else {
			for k, ck := range st.Schema.Keys {
				cols := make([]int, len(ck.Columns))
				for j, ci := range ck.Columns {
					cols[j] = lo + ci
				}
				keys = append(keys, key{cols, lo, len(layout)})
				if k == 0 {
					sig = append(sig, cols...)
				}
			}
		}
		tr, err := d.TableRows(corr, st.Schema, maxCombos)
		if err != nil {
			return false, nil, err
		}
		rows = append(rows, tr)
	}
	for _, r := range refs {
		proj = append(proj, slices.Index(layout, r.Qualifier+"."+r.Column))
	}

	hostNames := sortedKeys(d.Hosts)
	hostDoms := make([][]value.Value, len(hostNames))
	combos := 1
	for i, n := range hostNames {
		hostDoms[i] = d.Hosts[n]
		combos *= len(hostDoms[i])
	}
	for _, tr := range rows {
		if combos *= len(tr); combos > maxCombos {
			return false, nil, ErrTooManyCombinations
		}
	}

	// A pair differs in a varying table, and rows agreeing on one of its
	// keys agree on the whole table's row.
	pair := func(r1, r2 value.Row) bool {
		if !value.NullEqCols(r1, proj, r2, proj) || value.NullEqRows(r1[nFixed:], r2[nFixed:]) {
			return false
		}
		for _, k := range keys {
			if value.NullEqCols(r1, k.cols, r2, k.cols) && !value.NullEqRows(r1[k.lo:k.hi], r2[k.lo:k.hi]) {
				return false
			}
		}
		return true
	}
	// Qualifying rows are grouped by their projection, and inside a group
	// into buckets of one signature: the values of every varying table's
	// first key. Rows of one signature are never a pair — sharing every
	// table's key, they can coexist only as the same rows — so a row is
	// compared only with its group's other buckets.
	type bucket []value.Row
	qualified, err := a.QualifyExpr(s.Where, scope)
	if err != nil {
		return false, nil, err
	}
	where := eval.Prepare(qualified, layout, &eval.Vars{Hosts: hostNames})
	row := make(value.Row, len(layout))
	var w *Witness
	errFound := fmt.Errorf("witness found")
	err = each(hostDoms, func(hv []value.Value) error {
		pred := where.Arm(hv, nil, nil).Pred
		groups := map[uint64][]bucket{}
		return each(rows, func(pick []value.Row) error {
			at := row
			for _, r := range pick {
				at = at[copy(at, r):]
			}
			if t, err := pred(row); err != nil || !tvl.FalseInterpreted(t) {
				return err
			}
			h := value.HashCols(row, proj)
			bs, own := groups[h], -1
			for i, b := range bs {
				if value.NullEqCols(b[0], sig, row, sig) {
					own = i
					continue
				}
				for _, other := range b {
					if pair(other, row) {
						w = &Witness{Hosts: bind(hostNames, hv), R1: bind(layout, other), R2: bind(layout, row)}
						return errFound
					}
				}
			}
			if own < 0 {
				groups[h] = append(bs, bucket{slices.Clone(row)})
			} else {
				bs[own] = append(bs[own], slices.Clone(row))
			}
			return nil
		})
	})
	if err == errFound {
		return false, w, nil
	}
	return err == nil, nil, err
}

// TableRows returns the rows table t may hold under correlation name
// corr: every combination of its columns' domain values that passes its
// NOT NULL and CHECK constraints (true-interpreted, as storage admits
// them), the last column varying fastest. It fails with
// ErrTooManyCombinations when the combinations exceed maxCombos.
func (d Domains) TableRows(corr string, t *catalog.Table, maxCombos int) ([]value.Row, error) {
	doms := make([][]value.Value, len(t.Columns))
	combos := 1
	for i, c := range t.Columns {
		if doms[i] = d.Cols[corr+"."+c.Name]; len(doms[i]) == 0 {
			return nil, fmt.Errorf("core: no domain for column %s.%s", corr, c.Name)
		}
		if c.NotNull {
			doms[i] = slices.DeleteFunc(slices.Clone(doms[i]), value.Value.IsNull)
		}
		if combos *= len(doms[i]); combos > maxCombos {
			return nil, ErrTooManyCombinations
		}
	}
	checks := make([]eval.Pred, len(t.Checks))
	for i, chk := range t.Checks {
		checks[i] = eval.Prepare(chk, t.ColumnNames(), nil).Arm(nil, nil, nil).Pred
	}
	var out []value.Row
	err := each(doms, func(vals []value.Value) error {
		for _, chk := range checks {
			if t, err := chk(vals); err != nil || !tvl.TrueInterpreted(t) {
				return err
			}
		}
		out = append(out, slices.Clone(vals))
		return nil
	})
	return out, err
}

// each calls f with every combination of one element of each set, the
// last set varying fastest; pick is reused between calls. With no sets f
// runs once; with an empty set it never runs.
func each[T any](sets [][]T, f func(pick []T) error) error {
	pick := make([]T, len(sets))
	var walk func(i int) error
	walk = func(i int) error {
		if i == len(sets) {
			return f(pick)
		}
		for _, x := range sets[i] {
			pick[i] = x
			if err := walk(i + 1); err != nil {
				return err
			}
		}
		return nil
	}
	return walk(0)
}

func bind(names []string, vals []value.Value) map[string]value.Value {
	m := make(map[string]value.Value, len(names))
	for i, n := range names {
		m[n] = vals[i]
	}
	return m
}

// DefaultDomains builds the domains the exact checks draw from, for
// every table of every block of q. A column's domain is two values of
// its type, every literal its table's CHECKs or q's WHERE clauses
// compare it with — directly or through columns it is equated with —
// and NULL when the column is nullable. A host variable takes the
// non-NULL values of the columns it is compared with, or two integers
// when it is compared with none.
func DefaultDomains(cat *catalog.Catalog, q ast.Query) (Domains, error) {
	cols := map[string]catalog.Column{}
	lits := map[string][]value.Value{}
	hostCols := map[string][]string{}
	var equal [][2]string
	// compared records, for each comparison, BETWEEN and IN list of e
	// outside its subqueries whose subject is a column that column
	// names, the literals and host variables it is compared with and the
	// columns it is equated with. It returns the subqueries.
	compared := func(e ast.Expr, column func(*ast.ColumnRef) (string, bool)) (subs []*ast.Select) {
		note := func(x, y ast.Expr, equated bool) {
			ref, ok := x.(*ast.ColumnRef)
			if !ok {
				return
			}
			col, ok := column(ref)
			switch y := y.(type) {
			case *ast.IntLit, *ast.StringLit:
				if v, err := eval.Value(y, nil); ok && err == nil {
					lits[col] = append(lits[col], v)
				}
			case *ast.HostVar:
				if ok {
					hostCols[y.Name] = append(hostCols[y.Name], col)
				}
			case *ast.ColumnRef:
				if other, known := column(y); ok && known && equated {
					equal = append(equal, [2]string{col, other})
				}
			}
		}
		ast.WalkExpr(e, func(e ast.Expr) bool {
			switch x := e.(type) {
			case *ast.Compare:
				note(x.L, x.R, x.Op == ast.EqOp)
				note(x.R, x.L, x.Op == ast.EqOp)
			case *ast.Between:
				note(x.X, x.Lo, false)
				note(x.X, x.Hi, false)
			case *ast.InList:
				for _, it := range x.List {
					note(x.X, it, false)
				}
			case *ast.HostVar:
				if _, ok := hostCols[x.Name]; !ok {
					hostCols[x.Name] = nil // compared with no column
				}
			case *ast.Exists:
				subs = append(subs, x.Query)
				return false
			case *ast.InSubquery:
				subs = append(subs, x.Query)
				return false
			}
			return true
		})
		return subs
	}
	// block adds s's tables and what their CHECKs and s's WHERE compare,
	// then its subqueries' blocks, with s as their outer scope.
	var block func(s *ast.Select, outer *catalog.Scope) error
	block = func(s *ast.Select, outer *catalog.Scope) error {
		scope, err := catalog.NewScope(cat, s.From, outer)
		if err != nil {
			return err
		}
		for _, st := range scope.Tables {
			corr := strings.ToUpper(st.Ref.Name())
			for _, c := range st.Schema.Columns {
				cols[corr+"."+c.Name] = c
			}
			for _, chk := range st.Schema.Checks {
				compared(chk, func(ref *ast.ColumnRef) (string, bool) {
					return corr + "." + strings.ToUpper(ref.Column), st.Schema.ColumnIndex(ref.Column) >= 0
				})
			}
		}
		subs := compared(s.Where, func(ref *ast.ColumnRef) (string, bool) {
			if r, err := scope.Resolve(ref); err == nil {
				return r.Qualified(scope), true
			}
			return "", false
		})
		for _, sub := range subs {
			if err := block(sub, scope); err != nil {
				return err
			}
		}
		return nil
	}
	var err error
	switch x := q.(type) {
	case *ast.Select:
		err = block(x, nil)
	case *ast.SetOp:
		if err = block(x.Left, nil); err == nil {
			err = block(x.Right, nil)
		}
	}
	if err != nil {
		return Domains{}, err
	}

	// Equated columns share their literals, until nothing moves.
	for moved := true; moved; {
		moved = false
		for _, e := range equal {
			for _, p := range [][2]string{e, {e[1], e[0]}} {
				for _, v := range lits[p[0]] {
					if !holds(lits[p[1]], v) {
						lits[p[1]] = append(lits[p[1]], v)
						moved = true
					}
				}
			}
		}
	}
	d := Domains{Cols: map[string][]value.Value{}, Hosts: map[string][]value.Value{}}
	for name, col := range cols {
		vals := []value.Value{value.Int(1), value.Int(2)}
		switch col.Type {
		case value.KindString:
			vals = []value.Value{value.String_("a"), value.String_("b")}
		case value.KindBool:
			vals = []value.Value{value.Bool(false), value.Bool(true)}
		}
		for _, v := range lits[name] {
			if v.Kind() == col.Type && !holds(vals, v) {
				vals = append(vals, v)
			}
		}
		if !col.NotNull {
			vals = append(vals, value.Null)
		}
		d.Cols[name] = vals
	}
	for h, cs := range hostCols {
		var vals []value.Value
		for _, c := range cs {
			for _, v := range d.Cols[c] {
				if !v.IsNull() && !holds(vals, v) {
					vals = append(vals, v)
				}
			}
		}
		if len(vals) == 0 {
			vals = []value.Value{value.Int(1), value.Int(2)}
		}
		d.Hosts[h] = vals
	}
	return d, nil
}

// holds reports whether vals holds v.
func holds(vals []value.Value, v value.Value) bool {
	return slices.ContainsFunc(vals, func(x value.Value) bool { return value.NullEq(x, v) })
}
