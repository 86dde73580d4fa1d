package engine

import (
	"fmt"
	"math/rand"
	"testing"

	"uniqopt/internal/eval"
	"uniqopt/internal/sql/parser"
	"uniqopt/internal/value"
)

// randEmit draws an emit map over inputs left and right columns wide:
// any subset, in any order, with repeats; sometimes nothing at all,
// sometimes the identity.
func randEmit(r *rand.Rand, left, right int) Emit {
	switch r.Intn(8) {
	case 0:
		return Emit{}
	case 1:
		return IdentityEmit(left, right)
	}
	e := make(Emit, 1+r.Intn(left+right+2))
	for i := range e {
		if r.Intn(2) == 0 {
			e[i] = EmitCol{Ord: r.Intn(left)}
		} else {
			e[i] = EmitCol{Right: true, Ord: r.Intn(right)}
		}
	}
	return e
}

// projectedFullWidth is the reference for a join emitting emit: the same
// join at full width, then the projection onto the columns emit lists.
func projectedFullWidth(t *testing.T, st *Stats, full Iterator, emit Emit, left int) *Relation {
	sc := NewScratch()
	t.Helper()
	idx, names := make([]int, len(emit)), make([]string, len(emit))
	for i, c := range emit {
		if idx[i] = c.Ord; c.Right {
			idx[i] += left
		}
		names[i] = full.Cols()[idx[i]]
	}
	return mustDrain(t, sc, st, NewProjectIter(sc, st, full, projPlan(full.Cols(), names, idx)))
}

// Property: a join handed an emit map — a random subset, permutation and
// repetition of its inputs' columns — emits exactly what the full-width
// join followed by a projection onto those columns does: the same column
// names and the same rows in the same order, for the hash join (NULL
// keys, duplicate build keys), the index join's join form (NULL keys, a
// constant key suffix, a residual predicate) and the product, at batch
// sizes 1, 3 and the default.
func TestEmitMapProperty(t *testing.T) {
	sc := NewScratch()
	r := rand.New(rand.NewSource(41))
	rCols := []string{"R.ID", "R.K", "R.C", "R.V"}
	for trial := 0; trial < 300; trial++ {
		withBatchSize(t, []int{1, 3, DefaultBatchSize}[trial%3])
		var st Stats

		l, rr := randomRelation(r, "L", r.Intn(30)), randomRelation(r, "R", r.Intn(30))
		emit := randEmit(r, 3, 3)
		hash := func(e Emit) Iterator {
			return NewHashJoinIter(sc, &st, NewRelationIter(sc, &st, l), NewRelationIter(sc, &st, rr), joinPlan(l.Cols, rr.Cols, e, []int{0}, []int{0}))
		}
		identicalRelations(t, projectedFullWidth(t, &st, hash(IdentityEmit(3, 3)), emit, 3), mustDrain(t, sc, &st, hash(emit)),
			fmt.Sprintf("trial %d: hash join emitting %v\nL=%v\nR=%v", trial, emit, l, rr))

		small := &Relation{Cols: rr.Cols, Rows: rr.Rows[:min(len(rr.Rows), 6)]}
		product := func(e Emit) Iterator {
			return NewProductIter(sc, &st, NewRelationIter(sc, &st, l), NewRelationIter(sc, &st, small), joinPlan(l.Cols, small.Cols, e, nil, nil))
		}
		identicalRelations(t, projectedFullWidth(t, &st, product(IdentityEmit(3, 3)), emit, 3), mustDrain(t, sc, &st, product(emit)),
			fmt.Sprintf("trial %d: product emitting %v\nL=%v\nR=%v", trial, emit, l, small))

		outer := &Relation{Cols: []string{"L.K", "L.V"}}
		for i, n := 0, r.Intn(25); i < n; i++ {
			outer.Rows = append(outer.Rows, value.Row{maybeNull(r, 5), value.Int(int64(i))})
		}
		var inner []value.Row
		for i, n := 0, r.Intn(30); i < n; i++ {
			inner = append(inner, value.Row{maybeNull(r, 5), maybeNull(r, 3), value.Int(int64(r.Intn(10)))})
		}
		tbl, ix := probedTable(t, inner)
		in := IndexProbe{Tbl: tbl, Ix: ix, Cols: rCols, Key: []int{0}}
		konst := value.Null
		if r.Intn(2) == 0 {
			in.Key, konst = append(in.Key, -1), maybeNull(r, 3)
		}
		var residual eval.Filter
		if r.Intn(2) == 0 {
			pred, err := parser.ParseExpr(fmt.Sprintf("R.V >= %d", r.Intn(10)))
			if err != nil {
				t.Fatal(err)
			}
			residual = eval.Prepare(pred, rCols, nil).Arm(nil, nil, nil)
		}
		emit = randEmit(r, 2, 4)
		index := func(e Emit) Iterator {
			in.Emit = e
			return ixJoinIter(sc, &st, NewRelationIter(sc, &st, outer), in, konst, residual)
		}
		identicalRelations(t, projectedFullWidth(t, &st, index(IdentityEmit(2, 4)), emit, 2), mustDrain(t, sc, &st, index(emit)),
			fmt.Sprintf("trial %d: index join (key %v %v, residual %v) emitting %v\nL=%v\nR=%v", trial, in.Key, konst, !residual.Empty(), emit, outer, inner))
	}
}

// benchJoinInputs builds a 4,096-row probe side and a 256-row build side
// of five columns each; every probe row finds one build row.
func benchJoinInputs() (probe, build *Relation) {
	probe = &Relation{Cols: []string{"P.SNO", "P.PNO", "P.PNAME", "P.OEM", "P.COLOR"}}
	for i := 0; i < 4096; i++ {
		probe.Rows = append(probe.Rows, value.Row{value.Int(int64(i % 256)), value.Int(int64(i)),
			value.String_(fmt.Sprintf("part-%d", i)), value.Int(int64(1000 + 7*i)), value.String_("RED")})
	}
	build = &Relation{Cols: []string{"S.SNO", "S.SNAME", "S.SCITY", "S.BUDGET", "S.STATUS"}}
	for i := 0; i < 256; i++ {
		build.Rows = append(build.Rows, value.Row{value.Int(int64(i)), value.String_(fmt.Sprintf("supplier-%d", i)),
			value.String_("Toronto"), value.Int(int64(10 * i)), value.String_("Active")})
	}
	return probe, build
}

// live3 is Example 1's layout over benchJoinInputs: S.SNO, P.PNO, P.PNAME.
var live3 = Emit{{Right: true, Ord: 0}, {Ord: 1}, {Ord: 2}}

// drainRows pulls it dry and reports the rows it emitted.
func drainRows(b *testing.B, it Iterator) (rows int) {
	b.Helper()
	defer it.Close()
	for {
		batch, err := it.Next(ctx0)
		if err != nil {
			b.Fatal(err)
		}
		if batch == nil {
			return rows
		}
		rows += len(batch)
	}
}

// BenchmarkHashJoinEmit prices one hash join — build, probe, emit — at
// the full ten-column width and at the three columns Example 1 reads.
func BenchmarkHashJoinEmit(b *testing.B) {
	sc := NewScratch()
	probe, build := benchJoinInputs()
	for _, bc := range []struct {
		name string
		emit Emit
	}{{"all10", IdentityEmit(5, 5)}, {"live3", live3}} {
		b.Run(bc.name, func(b *testing.B) {
			var st Stats
			rows := 0
			plan := joinPlan(probe.Cols, build.Cols, bc.emit, []int{0}, []int{0})
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rows += drainRows(b, NewHashJoinIter(sc, &st, NewRelationIter(sc, &st, probe), NewRelationIter(sc, &st, build), plan))
				sc.Reset()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(rows), "ns/row")
		})
	}
}

// BenchmarkIndexJoinEmit prices one index join of 256 outer rows to the
// sixteen entries each finds, at full width and at three columns.
func BenchmarkIndexJoinEmit(b *testing.B) {
	sc := NewScratch()
	var inner []value.Row
	for k := 0; k < 256; k++ {
		for c := 0; c < 16; c++ {
			inner = append(inner, value.Row{value.Int(int64(k)), value.Int(int64(c)), value.Int(int64(c))})
		}
	}
	tbl, ix := probedTable(b, inner)
	_, outer := benchJoinInputs()
	in := IndexProbe{Tbl: tbl, Ix: ix, Cols: []string{"R.ID", "R.K", "R.C", "R.V"}, Key: []int{0}}
	for _, bc := range []struct {
		name string
		emit Emit
	}{{"all9", IdentityEmit(5, 4)}, {"live3", Emit{{Ord: 0}, {Right: true, Ord: 2}, {Right: true, Ord: 3}}}} {
		b.Run(bc.name, func(b *testing.B) {
			var st Stats
			rows := 0
			in.Emit = bc.emit
			plan := probePlan(in, outer.Cols)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rows += drainRows(b, NewIndexJoinIter(sc, &st, NewRelationIter(sc, &st, outer), plan, sc.Cells(1), eval.Filter{}))
				sc.Reset()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(rows), "ns/row")
		})
	}
}
