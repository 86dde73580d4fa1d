package plan

import (
	"context"
	"errors"
	"strings"
	"testing"

	"uniqopt/internal/engine"
	"uniqopt/internal/value"
)

// spyOp is a leaf operator whose iterators report when they are
// closed; with fail set, its build fails instead.
type spyOp struct {
	notes
	cols   []string
	fail   bool
	opened int
	closed map[*spyIter]int
}

type spyIter struct {
	engine.Iterator
	op *spyOp
}

func (it *spyIter) Close() error {
	it.op.closed[it]++
	return it.Iterator.Close()
}

func (o *spyOp) render(vals []value.Value) *Node { return o.node(vals, "Spy", o.cols[0]) }

func (o *spyOp) build(b *builder, n *Node) (engine.Iterator, error) {
	if o.fail {
		return nil, errors.New("spy: build failed")
	}
	rel := &engine.Relation{Cols: o.cols, Rows: []value.Row{{value.Int(1)}, {value.Int(2)}}}
	o.opened++
	return b.add(&spyIter{Iterator: engine.NewRelationIter(b.sc, b.st, rel), op: o}, n), nil
}

// TestBuildFailureClosesEveryIterator fails build half-way — a leaf
// whose build fails, reached after two joins over three leaves have
// been assembled — and requires that every iterator built before the
// failure was closed, that no result and no tree escape, and that the
// governor is back to zero; then that the same tree with a sound leaf
// runs.
func TestBuildFailureClosesEveryIterator(t *testing.T) {
	spies := []*spyOp{}
	leaf := func(col string) *spyOp {
		s := &spyOp{cols: []string{col}, closed: map[*spyIter]int{}}
		spies = append(spies, s)
		return s
	}
	join := func(probe, inner operator, left, right []string, emit engine.Emit, pi, bi []int) *joinOp {
		j := &joinOp{probe: probe, inner: inner, join: engine.Join{Emit: emit, Pi: pi, Bi: bi}}
		if err := j.join.Resolve(left, right); err != nil {
			t.Fatal(err)
		}
		return j
	}
	ab := join(leaf("A.K"), leaf("B.K"), []string{"A.K"}, []string{"B.K"}, engine.IdentityEmit(1, 1), []int{0}, []int{0})
	abc := join(ab, leaf("C.K"), []string{"A.K", "B.K"}, []string{"C.K"}, engine.IdentityEmit(2, 1), []int{1}, []int{0})
	broken := leaf("D.K")
	broken.fail = true
	top := join(abc, broken, []string{"A.K", "B.K", "C.K"}, []string{"D.K"}, engine.IdentityEmit(3, 1), []int{2}, []int{0})
	p := NewPlanner(smallDB(t), Options{MaxRows: 1 << 30, MemBudget: 1 << 30})
	f := NewFrame()
	for _, analyze := range []bool{false, true} {
		res, err := p.Execute(context.Background(), f, &Compiled{root: top}, nil, analyze)
		if err == nil || !strings.Contains(err.Error(), "spy: build failed") {
			t.Fatalf("analyze=%v: err = %v, want the leaf's build failure", analyze, err)
		}
		if res != nil {
			t.Errorf("analyze=%v: a result escaped a failed build", analyze)
		}
		for _, s := range spies {
			if s.opened != len(s.closed) {
				t.Errorf("analyze=%v: leaf %s built %d iterators, closed %d", analyze, s.cols[0], s.opened, len(s.closed))
			}
		}
		if rows, bytes := f.Governor().Usage(); rows != 0 || bytes != 0 {
			t.Errorf("analyze=%v: %d rows / %d bytes still charged after the failed build", analyze, rows, bytes)
		}
	}
	broken.fail = false
	sound := &projectOp{child: top, proj: engine.Projection{Cols: []string{"C.K"}, Idx: []int{2}}, detail: "C.K"}
	if err := sound.proj.Resolve([]string{"A.K", "B.K", "C.K", "D.K"}); err != nil {
		t.Fatal(err)
	}
	res, err := p.Execute(context.Background(), f, &Compiled{root: sound}, nil, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rel.Len() != 2 || res.Root.RowsOut != 2 || len(res.Root.AllNodes()) != 8 {
		t.Errorf("sound tree: %d rows, root %+v", res.Rel.Len(), res.Root)
	}
	for _, s := range spies {
		if s.opened != len(s.closed) {
			t.Errorf("sound tree: leaf %s built %d iterators, closed %d", s.cols[0], s.opened, len(s.closed))
		}
	}
}
