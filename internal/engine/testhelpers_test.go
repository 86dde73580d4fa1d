package engine

import (
	"context"
	"fmt"
	"maps"
	"math/rand"
	"testing"

	"uniqopt/internal/eval"
	"uniqopt/internal/oracle"
	"uniqopt/internal/sql/ast"
	"uniqopt/internal/storage"
	"uniqopt/internal/tvl"
	"uniqopt/internal/value"
)

// ctx0 is the background context used by tests that exercise operator
// semantics rather than lifecycle behavior.
var ctx0 = context.Background()

// okRel unwraps an operator's (rel, err) pair, panicking on error
// (which the testing framework reports as a test failure with a
// stack). It takes the pair as its only arguments so call sites can
// wrap an operator call directly: okRel(Drain(ctx0, ...)).
// Lifecycle-focused tests that expect errors call operators directly.
func okRel(rel *Relation, err error) *Relation {
	if err != nil {
		panic(fmt.Sprintf("engine test: operator failed: %v", err))
	}
	return rel
}

// ok panics on the error of a plan's Resolve, the way a planner fails
// a statement whose plan names a column its input lacks.
func ok(err error) {
	if err != nil {
		panic(fmt.Sprintf("engine test: plan resolution failed: %v", err))
	}
}

// joinPlan is the resolved plan of a join of inputs emitting left and
// right: a hash join on the left columns at pi equal to the right ones
// at bi, or with no key a product.
func joinPlan(left, right []string, emit Emit, pi, bi []int) *Join {
	j := &Join{Emit: emit, Pi: pi, Bi: bi}
	ok(j.Resolve(left, right))
	return j
}

// probePlan is in resolved against an outer input emitting outer.
func probePlan(in IndexProbe, outer []string) *IndexProbe {
	ok(in.Resolve(outer))
	return &in
}

// ixJoinIter is the index join of outer to in's table, in resolved
// against outer's columns: every constant of its key is konst, and keep
// the residual a fetched row must satisfy (the zero Filter: none).
func ixJoinIter(sc *Scratch, st *Stats, outer Iterator, in IndexProbe, konst value.Value, keep eval.Filter) Iterator {
	key := sc.Cells(len(in.Key))
	for i, k := range in.Key {
		if k < 0 {
			key[i] = konst
		}
	}
	return NewIndexJoinIter(sc, st, outer, probePlan(in, outer.Cols()), key, keep)
}

// projPlan is the resolved plan of a projection of an input emitting in
// onto its columns at idx, named cols.
func projPlan(in, cols []string, idx []int) *Projection {
	p := &Projection{Cols: cols, Idx: idx}
	ok(p.Resolve(in))
	return p
}

// colIdx resolves names against cols the way a planner does once per
// statement shape.
func colIdx(cols []string, names ...string) []int {
	idx, err := ColIndexes(cols, names)
	if err != nil {
		panic(fmt.Sprintf("engine test: %v", err))
	}
	return idx
}

func concat(a, b []string) []string { return append(append([]string{}, a...), b...) }

// joinIter is the hash-join iterator of probe and build on the named
// key columns.
func joinIter(sc *Scratch, st *Stats, probe, build Iterator, probeKeys, buildKeys []string) Iterator {
	return NewHashJoinIter(sc, st, probe, build, joinPlan(probe.Cols(), build.Cols(),
		IdentityEmit(len(probe.Cols()), len(build.Cols())),
		colIdx(probe.Cols(), probeKeys...), colIdx(build.Cols(), buildKeys...)))
}

// hashJoin drains the hash-join iterator over two relations.
func hashJoin(sc *Scratch, st *Stats, l, r *Relation, lKeys, rKeys []string) *Relation {
	return okRel(Drain(ctx0, sc, st, joinIter(sc, st, NewRelationIter(sc, st, l), NewRelationIter(sc, st, r), lKeys, rKeys)))
}

// projIter is the projection iterator of child onto the named columns.
func projIter(sc *Scratch, st *Stats, child Iterator, names ...string) Iterator {
	return NewProjectIter(sc, st, child, projPlan(child.Cols(), names, colIdx(child.Cols(), names...)))
}

// productIter is the product iterator of two iterators.
func prodIter(sc *Scratch, st *Stats, l, r Iterator) Iterator {
	return NewProductIter(sc, st, l, r, joinPlan(l.Cols(), r.Cols(), IdentityEmit(len(l.Cols()), len(r.Cols())), nil, nil))
}

// hashDistinct drains the hash-distinct iterator over a relation.
func hashDistinct(sc *Scratch, st *Stats, rel *Relation) *Relation {
	return okRel(Drain(ctx0, sc, st, NewDistinctHashIter(sc, st, NewRelationIter(sc, st, rel))))
}

// The expected answers of the operator tests below come from
// definitions, not from the engine: nested loops for joins and products,
// eval.Truth per row for a filter, the oracle's ≐-counting for DISTINCT
// and the set operations.

// joinOracle is the equi-join lKey = rKey by its definition: nested
// loops over both inputs, keeping a pair whose keys are non-NULL and
// equal, in left order with the right input's order inside a key — the
// order the hash-join iterator promises.
func joinOracle(l, r *Relation, lKey, rKey string) *Relation {
	li, ri := l.ColumnIndex(lKey), r.ColumnIndex(rKey)
	out := &Relation{Cols: concat(l.Cols, r.Cols)}
	for _, lr := range l.Rows {
		for _, rr := range r.Rows {
			if !lr[li].IsNull() && !rr[ri].IsNull() && value.Compare(lr[li], rr[ri]) == 0 {
				out.Rows = append(out.Rows, append(append(value.Row{}, lr...), rr...))
			}
		}
	}
	return out
}

// productOracle is l × r: every left row followed by every right one,
// in left order with the right input's order inside a left row.
func productOracle(l, r *Relation) *Relation {
	out := &Relation{Cols: concat(l.Cols, r.Cols)}
	for _, lr := range l.Rows {
		for _, rr := range r.Rows {
			out.Rows = append(out.Rows, append(append(value.Row{}, lr...), rr...))
		}
	}
	return out
}

// filterOracle is the WHERE clause by its definition: the rows of rel on
// which eval.Truth is TRUE, with the row bound over env.Cols under rel's
// column names.
func filterOracle(rel *Relation, pred ast.Expr, env *eval.Env) *Relation {
	e := *env
	e.Cols = map[string]value.Value{}
	maps.Copy(e.Cols, env.Cols)
	out := &Relation{Cols: rel.Cols}
	for _, row := range rel.Rows {
		for i, c := range rel.Cols {
			e.Cols[c] = row[i]
		}
		t, err := eval.Truth(pred, &e)
		if err != nil {
			panic(fmt.Sprintf("engine test: %s on %s: %v", pred.SQL(), row, err))
		}
		if tvl.IsTrue(t) {
			out.Rows = append(out.Rows, row)
		}
	}
	return out
}

// projectOracle is rel projected onto the named columns, duplicates
// kept.
func projectOracle(rel *Relation, names ...string) *Relation {
	idx := colIdx(rel.Cols, names...)
	out := &Relation{Cols: names}
	for _, row := range rel.Rows {
		nr := make(value.Row, len(idx))
		for i, c := range idx {
			nr[i] = row[c]
		}
		out.Rows = append(out.Rows, nr)
	}
	return out
}

// distinctOracle and setOpOracle are the oracle's ≐-counting DISTINCT
// and INTERSECT / EXCEPT [ALL] over relations.
func distinctOracle(rel *Relation) *Relation {
	return &Relation{Cols: rel.Cols, Rows: oracle.Distinct(rel.Rows)}
}

func setOpOracle(l, r *Relation, except, all bool) *Relation {
	return &Relation{Cols: l.Cols, Rows: oracle.SetOp(l.Rows, r.Rows, except, all)}
}

// tableRel drains a scan of tbl under the correlation name corr.
func tableRel(sc *Scratch, st *Stats, tbl *storage.Table, corr string) *Relation {
	return okRel(Drain(ctx0, sc, st, NewTableIter(sc, st, tbl, QualifiedCols(tbl, corr))))
}

// firstOccurrences is the plain-Go oracle for hash distinct's order:
// the rows of rel not ≐-equal to any earlier row, in input order.
func firstOccurrences(rel *Relation) *Relation {
	out := &Relation{Cols: rel.Cols}
next:
	for _, row := range rel.Rows {
		for _, seen := range out.Rows {
			if value.NullEqRows(seen, row) {
				continue next
			}
		}
		out.Rows = append(out.Rows, row)
	}
	return out
}

// randomRelation builds a deterministic pseudo-random relation with
// duplicate-heavy keys and a sprinkling of NULLs in every column.
func randomRelation(r *rand.Rand, prefix string, n int) *Relation {
	rel := &Relation{Cols: []string{prefix + ".K", prefix + ".A", prefix + ".B"}}
	rel.Rows = make([]value.Row, n)
	for i := range rel.Rows {
		k := value.Int(int64(r.Intn(n/4 + 1)))
		if r.Intn(20) == 0 {
			k = value.Null
		}
		a := value.Int(int64(r.Intn(10)))
		b := value.String_(fmt.Sprintf("s%d", r.Intn(8)))
		if r.Intn(25) == 0 {
			b = value.Null
		}
		rel.Rows[i] = value.Row{k, a, b}
	}
	return rel
}

// identicalRelations requires byte-identical results: same columns,
// same rows, same order.
func identicalRelations(t *testing.T, want, got *Relation, what string) {
	t.Helper()
	if len(want.Cols) != len(got.Cols) {
		t.Fatalf("%s: column count %d != %d", what, len(got.Cols), len(want.Cols))
	}
	for i := range want.Cols {
		if want.Cols[i] != got.Cols[i] {
			t.Fatalf("%s: column %d: %s != %s", what, i, got.Cols[i], want.Cols[i])
		}
	}
	if len(want.Rows) != len(got.Rows) {
		t.Fatalf("%s: row count %d != %d", what, len(got.Rows), len(want.Rows))
	}
	for i := range want.Rows {
		if value.OrderCompareRows(want.Rows[i], got.Rows[i]) != 0 {
			t.Fatalf("%s: row %d: %s != %s", what, i, got.Rows[i], want.Rows[i])
		}
	}
}
