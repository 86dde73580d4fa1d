// Package oracle is the definitional evaluator the differential tests
// hold the product to. It evaluates a query the way the paper defines
// one: a block is the extended Cartesian product of its FROM tables,
// restricted to the rows on which the WHERE clause is TRUE under
// three-valued logic, projected onto the select list with duplicates
// retained; DISTINCT and the set operations count rows under ≐, the
// null-equivalence of the paper's Table 2 (NULL ≐ NULL).
//
// It shares nothing with the engine or the planner: no plan, no
// iterator, no prepared kernel. A row's WHERE clause is eval.Truth over
// a name→value environment, and a subquery is evaluated afresh for
// every outer row through the environment's callbacks. It is slow on
// purpose and only tests import it.
package oracle

import (
	"fmt"
	"strings"

	"uniqopt/internal/catalog"
	"uniqopt/internal/eval"
	"uniqopt/internal/sql/ast"
	"uniqopt/internal/storage"
	"uniqopt/internal/tvl"
	"uniqopt/internal/value"
)

// Query evaluates q over db with the given host-variable bindings and
// returns its columns, named "CORRELATION.COLUMN", and its rows. Row
// order carries no meaning.
func Query(db *storage.DB, q ast.Query, hosts map[string]value.Value) (cols []string, rows []value.Row, err error) {
	e := &evaluator{db: db, hosts: hosts}
	switch x := q.(type) {
	case *ast.Select:
		return e.block(x, nil, nil, false)
	case *ast.SetOp:
		cols, l, err := e.block(x.Left, nil, nil, false)
		if err != nil {
			return nil, nil, err
		}
		rcols, r, err := e.block(x.Right, nil, nil, false)
		if err != nil {
			return nil, nil, err
		}
		if len(cols) != len(rcols) {
			return nil, nil, fmt.Errorf("oracle: set operands are not union-compatible (%d vs %d columns)",
				len(cols), len(rcols))
		}
		return cols, SetOp(l, r, x.Op == ast.Except, x.All), nil
	default:
		return nil, nil, fmt.Errorf("oracle: unknown query node %T", q)
	}
}

// evaluator carries what every block of one query shares.
type evaluator struct {
	db    *storage.DB
	hosts map[string]value.Value
}

// block evaluates one query specification. outer is the enclosing
// block's scope and outerCols its current row's bindings, for a
// correlated subquery; with first set, block stops at the first
// qualifying row (an EXISTS needs no more).
func (e *evaluator) block(s *ast.Select, outer *catalog.Scope, outerCols map[string]value.Value, first bool) ([]string, []value.Row, error) {
	scope, err := catalog.NewScope(e.db.Catalog(), s.From, outer)
	if err != nil {
		return nil, nil, err
	}
	items, err := scope.ExpandItems(s.Items)
	if err != nil {
		return nil, nil, err
	}
	cols := make([]string, len(items))
	for i, it := range items {
		cols[i] = it.Qualifier + "." + it.Column
	}
	// Each FROM table binds its columns under its correlation name.
	tables := make([]*storage.Table, len(s.From))
	names := make([][]string, len(s.From))
	for i, tr := range s.From {
		tbl, ok := e.db.Table(tr.Table)
		if !ok {
			return nil, nil, fmt.Errorf("oracle: unknown table %s", tr.Table)
		}
		corr := strings.ToUpper(tr.Name())
		tables[i] = tbl
		for _, c := range tbl.Schema.Columns {
			names[i] = append(names[i], corr+"."+c.Name)
		}
	}
	env := &eval.Env{
		Cols:   make(map[string]value.Value, len(outerCols)),
		Hosts:  e.hosts,
		Scope:  scope,
		Exists: e.exists,
		In:     e.in,
	}
	for k, v := range outerCols {
		env.Cols[k] = v
	}
	var rows []value.Row
	// loop binds a row of every table from the i-th on, in turn: nested
	// loops over FROM, the WHERE clause decided on each combination.
	var loop func(i int) (done bool, err error)
	loop = func(i int) (bool, error) {
		if i == len(tables) {
			t, err := eval.Truth(s.Where, env)
			if err != nil || !tvl.IsTrue(t) {
				return false, err
			}
			row := make(value.Row, len(cols))
			for k, c := range cols {
				row[k] = env.Cols[c]
			}
			rows = append(rows, row)
			return first, nil
		}
		for j := 0; j < tables[i].Len(); j++ {
			r := tables[i].Row(j)
			for k, name := range names[i] {
				env.Cols[name] = r[k]
			}
			if done, err := loop(i + 1); done || err != nil {
				return done, err
			}
		}
		return false, nil
	}
	if _, err := loop(0); err != nil {
		return nil, nil, err
	}
	if s.Quant.IsDistinct() {
		rows = Distinct(rows)
	}
	return cols, rows, nil
}

// exists is the EXISTS callback: the subquery, evaluated with the
// current row's bindings as its outer scope, is non-empty.
func (e *evaluator) exists(sub *ast.Select, env *eval.Env) (tvl.Truth, error) {
	_, rows, err := e.block(sub, env.Scope, env.Cols, true)
	if err != nil {
		return tvl.Unknown, err
	}
	return tvl.Of(len(rows) > 0), nil
}

// in is the IN-subquery callback: the values of the subquery's one
// column, evaluated with the current row's bindings as its outer scope.
func (e *evaluator) in(sub *ast.Select, env *eval.Env) ([]value.Value, error) {
	cols, rows, err := e.block(sub, env.Scope, env.Cols, false)
	if err != nil {
		return nil, err
	}
	if len(cols) != 1 {
		return nil, fmt.Errorf("oracle: IN subquery must produce one column, got %d", len(cols))
	}
	out := make([]value.Value, len(rows))
	for i, row := range rows {
		out[i] = row[0]
	}
	return out, nil
}

// bag is a multiset of rows under ≐: each distinct row once, in order
// of first occurrence, with its multiplicity.
type bag struct {
	rows  []value.Row
	count map[string]int
}

// key spells a row as its SQL literals: two rows have the same key
// exactly when they are ≐-equal, since NULL spells NULL wherever it
// stands and every other value spells itself and its kind.
func key(row value.Row) string {
	var b []byte
	for i, v := range row {
		if i > 0 {
			b = append(b, ',')
		}
		b = v.AppendSQL(b)
	}
	return string(b)
}

func count(rows []value.Row) bag {
	b := bag{count: make(map[string]int, len(rows))}
	for _, row := range rows {
		k := key(row)
		if b.count[k] == 0 {
			b.rows = append(b.rows, row)
		}
		b.count[k]++
	}
	return b
}

// Distinct is the set of rows: each ≐-class of rows once, in order of
// first occurrence.
func Distinct(rows []value.Row) []value.Row {
	return count(rows).rows
}

// SetOp is l INTERSECT r, or with except set l EXCEPT r, as Table 2
// defines them: a row that occurs j times in l and k times in r occurs
// min(j, k) times in INTERSECT ALL, max(j − k, 0) times in EXCEPT ALL,
// and once in INTERSECT (j, k > 0) or EXCEPT (j > 0, k = 0).
func SetOp(l, r []value.Row, except, all bool) []value.Row {
	lb, rb := count(l), count(r)
	var out []value.Row
	for _, row := range lb.rows {
		j, k := lb.count[key(row)], rb.count[key(row)]
		var n int
		switch {
		case except && all:
			n = max(j-k, 0)
		case except:
			if k == 0 {
				n = 1
			}
		case all:
			n = min(j, k)
		default:
			n = min(k, 1)
		}
		for ; n > 0; n-- {
			out = append(out, row)
		}
	}
	return out
}
