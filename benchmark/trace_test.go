package main

import (
	"testing"

	"uniqopt/internal/plan"
)

// Self time is a span's duration less the part of it its children
// cover: overlapping children count once, a child reaching past the
// parent is clipped, grandchildren are the child's business.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Start: 0, End: 100},
		{ID: 1, Parent: 0, Start: 10, End: 30},
		{ID: 2, Parent: 0, Start: 20, End: 50},  // overlaps span 1 on 20..30
		{ID: 3, Parent: 0, Start: 90, End: 120}, // 100..120 lies outside the parent
		{ID: 4, Parent: 2, Start: 25, End: 45},
		{ID: 5, Parent: -1, Start: 200, End: 260}, // no children
	}
	want := []int64{
		100 - (40 + 10), // 10..50 and 90..100 covered
		20,
		30 - 20,
		30,
		20,
		60,
	}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of span %d = %d, want %d", i, got[i], want[i])
		}
	}
}

// Operator durations become child spans laid end to end from the
// parent's start, so the parent's self time is its wall time less the
// sum of operator times.
func TestOperatorsBecomeChildSpans(t *testing.T) {
	tr := newTracer(10, 0)
	tr.spans = []span{{ID: 0, Op: 7, Class: "c", Name: "engine.explain_analyze", Parent: -1, Start: 1000, End: 2000}}
	root := &plan.Node{Op: "Project", Analyzed: true, TimeNanos: 100, RowsIn: 5, RowsOut: 5, Children: []*plan.Node{
		{Op: "HashJoin", Analyzed: true, TimeNanos: 300, RowsIn: 25, RowsOut: 5, Parallel: true, Children: []*plan.Node{
			{Op: "Scan", Analyzed: true, TimeNanos: 150, RowsIn: 20, RowsOut: 20},
			{Op: "Scan", Analyzed: true, TimeNanos: 50, RowsIn: 5, RowsOut: 5},
		}},
	}}
	tr.operators(0, root)
	if len(tr.spans) != 5 {
		t.Fatalf("%d spans, want 5", len(tr.spans))
	}
	if self := selfTimes(tr.spans); self[0] != 1000-600 {
		t.Errorf("parent self time = %d, want 400", self[0])
	}
	last := tr.spans[4]
	if last.Start != 1550 || last.End != 1600 || last.Parent != 0 || last.Op != 7 || last.Name != "engine.op.Scan" {
		t.Errorf("last operator span = %+v", last)
	}
	if tr.opNanos["Scan"] != 200 || tr.opRowsOut["Scan"] != 25 || tr.opRowsIn["HashJoin"] != 25 {
		t.Errorf("operator totals: %v %v %v", tr.opNanos, tr.opRowsIn, tr.opRowsOut)
	}
	if tr.nodes != 4 || tr.parallelNodes != 1 {
		t.Errorf("nodes %d parallel %d, want 4 and 1", tr.nodes, tr.parallelNodes)
	}
	if got := tr.operatorUS["c"]; len(got) != 1 || got[0] != 0.6 {
		t.Errorf("operator time of the op = %v, want [0.6]", got)
	}
}
