package plan

import (
	"math"
	"strings"

	"uniqopt/internal/catalog"
	"uniqopt/internal/sql/ast"
	"uniqopt/internal/storage"
)

// The paper positions its rewrites as strategy-space expansion: "once
// the optimizer identifies possible transformations, it can then
// choose the most appropriate strategy on the basis of its cost model"
// (Section 5). This file provides that cost model — a deliberately
// simple analytic estimate in units of row touches — and the planner's
// CostBased mode uses it to pick between the original and rewritten
// query forms (see experiment E4's crossover for why this matters).

// Selectivity guesses, in the System-R tradition.
const (
	selEquality = 0.1
	selRange    = 0.3
	selOther    = 0.5
)

// EstimateCost returns an analytic execution-cost estimate for q over
// the database's current cardinalities. It mirrors the physical
// planner's strategy choices: pushdown with index assists, left-deep
// hash joins for equi-predicates, Cartesian products otherwise,
// nested-loop subquery probes for residual EXISTS/IN, hash-based
// DISTINCT, and sort-merge set operations.
func EstimateCost(db *storage.DB, q ast.Query) (float64, error) {
	switch x := q.(type) {
	case *ast.Select:
		cost, _, err := estimateSelect(db, x, nil)
		return cost, err
	case *ast.SetOp:
		lc, lRows, err := estimateSelect(db, x.Left, nil)
		if err != nil {
			return 0, err
		}
		rc, rRows, err := estimateSelect(db, x.Right, nil)
		if err != nil {
			return 0, err
		}
		return lc + rc + sortCost(lRows) + sortCost(rRows), nil
	default:
		return 0, nil
	}
}

// estimateSelect returns (cost, output cardinality estimate).
func estimateSelect(db *storage.DB, s *ast.Select, outer *catalog.Scope) (float64, float64, error) {
	scope, err := catalog.NewScope(db.Catalog(), s.From, outer)
	if err != nil {
		return 0, 0, err
	}
	type tableEst struct {
		corr string
		tbl  *storage.Table
		rows float64
	}
	var tables []tableEst
	for _, tr := range s.From {
		tbl, ok := db.Table(tr.Table)
		if !ok {
			return 0, 0, nil
		}
		tables = append(tables, tableEst{
			corr: strings.ToUpper(tr.Name()),
			tbl:  tbl,
			rows: float64(tbl.Len()),
		})
	}

	cost := 0.0
	// Classify conjuncts. normalizeComparison treats host variables as
	// constants (a bound :NAME is one value at execution time), so a
	// parameterized point predicate costs like a literal one instead of
	// like an opaque filter over a full scan. The first point- or
	// range-bound column per table is remembered so the scan cost below
	// can mirror the physical planner's index access paths.
	var joinEq int
	var subqueries []*ast.Select
	perTableSel := map[string]float64{}
	pointCol := map[string]string{}
	rangeCol := map[string]string{}
	for _, c := range ast.Conjuncts(s.Where) {
		switch x := c.(type) {
		case *ast.Exists:
			subqueries = append(subqueries, x.Query)
		case *ast.InSubquery:
			subqueries = append(subqueries, x.Query)
		default:
			qs := conjQualifiers(x, scope)
			switch len(qs) {
			case 1:
				sel := selOther
				var boundCol string
				isPoint := false
				switch y := x.(type) {
				case *ast.Compare:
					if ref, _, op := normalizeComparison(y); ref != nil {
						switch op {
						case ast.EqOp:
							sel, boundCol, isPoint = selEquality, ref.Column, true
						case ast.LtOp, ast.LeOp, ast.GtOp, ast.GeOp:
							sel, boundCol = selRange, ref.Column
						}
					} else if y.Op == ast.EqOp {
						sel = selEquality
					}
				case *ast.Between:
					sel = selRange
					if ref, ok := y.X.(*ast.ColumnRef); ok && !y.Negated &&
						isConstExpr(y.Lo) && isConstExpr(y.Hi) {
						boundCol = ref.Column
					}
				}
				for corr := range qs {
					if perTableSel[corr] == 0 {
						perTableSel[corr] = 1
					}
					perTableSel[corr] *= sel
					if boundCol == "" {
						continue
					}
					if isPoint {
						if _, seen := pointCol[corr]; !seen {
							pointCol[corr] = boundCol
						}
					} else if _, seen := rangeCol[corr]; !seen {
						rangeCol[corr] = boundCol
					}
				}
			default:
				if cmp, ok := x.(*ast.Compare); ok && cmp.Op == ast.EqOp {
					joinEq++
				}
			}
		}
	}

	// Scan (with pushdown) per table. When a bound column has an
	// ordered index on its leading position, the scan touches only the
	// estimated qualifying fraction — the same access paths
	// chooseAccessPath picks — instead of every row.
	out := 1.0
	for i := range tables {
		eff := tables[i].rows
		if f, ok := perTableSel[tables[i].corr]; ok {
			eff *= f
		}
		scan := tables[i].rows
		if col, ok := pointCol[tables[i].corr]; ok && tables[i].tbl.OrderedIndexOn(col) != nil {
			scan = math.Max(1, scan*selEquality)
		} else if col, ok := rangeCol[tables[i].corr]; ok && tables[i].tbl.OrderedIndexOn(col) != nil {
			scan = math.Max(1, scan*selRange)
		}
		cost += scan
		tables[i].rows = eff
	}
	// Left-deep joins.
	cur := tables[0].rows
	for _, t := range tables[1:] {
		if joinEq > 0 {
			// Hash join: build + probe, equi-output estimate.
			cost += cur + t.rows
			cur = math.Max(cur, t.rows) * selEquality * 10 // ≈ FK fan-out
			joinEq--
		} else {
			cost += cur * t.rows
			cur = cur * t.rows
		}
	}
	out = cur

	// Residual subqueries: nested-loop probes, one inner evaluation
	// per surviving outer row.
	for _, sub := range subqueries {
		subCost, _, err := estimateSelect(db, sub, scope)
		if err != nil {
			return 0, 0, err
		}
		cost += out * subCost
		out *= selOther
	}
	if s.Quant.IsDistinct() {
		cost += out // one hash-table insert or probe a row
		out *= 0.5
	}
	return cost, out, nil
}

// conjQualifiers collects correlation names a conjunct references,
// restricted to the local scope.
func conjQualifiers(e ast.Expr, scope *catalog.Scope) map[string]bool {
	out := map[string]bool{}
	for _, ref := range ast.ColumnRefs(e) {
		r, err := scope.Resolve(ref)
		if err != nil || r.Depth != 0 {
			continue
		}
		q := r.Qualified(scope)
		out[q[:strings.IndexByte(q, '.')]] = true
	}
	return out
}

func sortCost(n float64) float64 {
	if n < 2 {
		return n
	}
	return n * math.Log2(n)
}
