package plan

import (
	"context"
	"strings"
	"testing"

	"uniqopt/internal/engine"
	"uniqopt/internal/value"
)

// spyOp is a leaf operator whose iterators report when they are closed.
type spyOp struct {
	notes
	cols   []string
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
	rel := engine.NewRelation(o.cols...)
	rel.Rows = []value.Row{{value.Int(1)}, {value.Int(2)}}
	o.opened++
	return b.add(&spyIter{Iterator: engine.NewRelationIter(b.st, rel), op: o}, n), nil
}

// TestBuildFailureClosesEveryIterator fails build half-way — a
// projection naming a column its input does not have, reached after two
// joins over three leaves have been assembled — and requires that every
// iterator built before the failure was closed, that no result and no
// tree escape, and that the governor is back to zero; then that the
// same tree with a sound projection runs.
func TestBuildFailureClosesEveryIterator(t *testing.T) {
	spies := []*spyOp{}
	leaf := func(col string) *spyOp {
		s := &spyOp{cols: []string{col}, closed: map[*spyIter]int{}}
		spies = append(spies, s)
		return s
	}
	ab := &joinOp{probe: leaf("A.K"), inner: leaf("B.K"), emit: engine.IdentityEmit(1, 1), pi: []int{0}, bi: []int{0}}
	abc := &joinOp{probe: ab, inner: leaf("C.K"), emit: engine.IdentityEmit(2, 1), pi: []int{1}, bi: []int{0}}
	p := NewPlanner(smallDB(t), Options{})
	gov := engine.NewGovernor(1<<30, 1<<30)
	ctx := engine.WithGovernor(context.Background(), gov)
	for _, analyze := range []bool{false, true} {
		broken := &Compiled{root: &projectOp{child: abc, cols: []string{"D.MISSING"}, idx: []int{3}, detail: "D.MISSING"}}
		res, err := p.Execute(ctx, broken, nil, analyze)
		if err == nil || !strings.Contains(err.Error(), "no column #3") {
			t.Fatalf("analyze=%v: err = %v, want the projection's missing column", analyze, err)
		}
		if res != nil {
			t.Errorf("analyze=%v: a result escaped a failed build", analyze)
		}
		for _, s := range spies {
			if s.opened != len(s.closed) {
				t.Errorf("analyze=%v: leaf %s built %d iterators, closed %d", analyze, s.cols[0], s.opened, len(s.closed))
			}
		}
		if rows, bytes := gov.Usage(); rows != 0 || bytes != 0 {
			t.Errorf("analyze=%v: %d rows / %d bytes still charged after the failed build", analyze, rows, bytes)
		}
	}
	sound := &Compiled{root: &projectOp{child: abc, cols: []string{"C.K"}, idx: []int{2}, detail: "C.K"}}
	res, err := p.Execute(ctx, sound, nil, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rel.Len() != 2 || res.Root.RowsOut != 2 || len(res.Root.AllNodes()) != 6 {
		t.Errorf("sound tree: %d rows, root %+v", res.Rel.Len(), res.Root)
	}
	for _, s := range spies {
		if s.opened != len(s.closed) {
			t.Errorf("sound tree: leaf %s built %d iterators, closed %d", s.cols[0], s.opened, len(s.closed))
		}
	}
}
