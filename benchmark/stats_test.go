package main

import (
	"math"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestPercentileNearestRank(t *testing.T) {
	var hundred []float64
	for i := 1; i <= 100; i++ {
		hundred = append(hundred, float64(i))
	}
	for _, tc := range []struct {
		xs   []float64
		p    float64
		want float64
	}{
		{hundred, 0.50, 50},
		{hundred, 0.95, 95},
		{hundred, 0.99, 99},
		{hundred, 1.00, 100},
		{[]float64{1, 2, 3, 4}, 0.50, 2},
		{[]float64{7}, 0.95, 7},
		{nil, 0.50, 0},
	} {
		if got := percentile(tc.xs, tc.p); got != tc.want {
			t.Errorf("percentile(%d samples, %g) = %g, want %g", len(tc.xs), tc.p, got, tc.want)
		}
	}
}

func TestMedianAndGeomean(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median odd = %g, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %g, want 2.5", got)
	}
	if got := geomean([]float64{1, 10, 100}); !near(got, 10) {
		t.Errorf("geomean = %g, want 10", got)
	}
	// A class with no samples reads 0 and is left out, not multiplied in.
	if got := geomean([]float64{2, 0, 8}); !near(got, 4) {
		t.Errorf("geomean with a zero = %g, want 4", got)
	}
	if got := geomean(nil); got != 0 {
		t.Errorf("geomean of nothing = %g, want 0", got)
	}
}

// The expected values are what Python prints for
// statistics.quantiles(data, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if !near(q1, 2.75) || !near(q2, 5.5) || !near(q3, 8.25) {
		t.Errorf("quartiles(1..10) = %g %g %g, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if !near(q1, 1.5) || !near(q2, 4) || !near(q3, 12) {
		t.Errorf("quartiles(1,2,4,8,16) = %g %g %g, want 1.5 4 12", q1, q2, q3)
	}
	if got := spread([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}); !near(got, 1) {
		t.Errorf("spread(1..10) = %g, want 1", got)
	}
}

// A pass of two slices with known ops: throughput and CPU per op are
// medians over slices, latencies aggregate per class and then by
// geometric mean.
func TestSummarize(t *testing.T) {
	ms := time.Millisecond
	p := pass{
		ticks: []tick{{0, 0}, {1000 * ms, 400 * ms}, {2000 * ms, 1000 * ms}},
		recs: []rec{
			{class: 0, ok: true, lat: 1 * ms, end: 100 * ms},
			{class: 0, ok: true, lat: 3 * ms, end: 200 * ms},
			{class: 1, ok: true, lat: 16 * ms, end: 900 * ms},
			{class: 1, ok: false, lat: 4 * ms, end: 1000 * ms}, // on the boundary: first slice
			{class: 0, ok: true, lat: 2 * ms, end: 1500 * ms},
			{class: 1, ok: true, lat: 4 * ms, end: 1999 * ms},
		},
		mark: &memMark{at: 6, allocBytes: 6 * 2048, reached: true},
	}
	out := metricSet{}
	attempted, failed, byClass := p.summarize([]string{"a", "b"}, out)
	if attempted != 6 || failed != 1 {
		t.Fatalf("attempted %d failed %d, want 6 and 1", attempted, failed)
	}
	// Slice 1: 3 correct of 4 ops in 1 s, 400 ms CPU; slice 2: 2 of 2, 600 ms.
	if got := out["ops_per_s"]; !near(got, 2.5) {
		t.Errorf("ops_per_s = %g, want 2.5", got)
	}
	if got := out["cpu_us_per_op"]; !near(got, (100000+300000)/2) {
		t.Errorf("cpu_us_per_op = %g, want 200000", got)
	}
	if byClass[0].p50 != 2000 || byClass[1].p50 != 4000 {
		t.Errorf("class medians = %g %g, want 2000 4000", byClass[0].p50, byClass[1].p50)
	}
	if got := out["p50_geomean_us"]; !near(got, math.Sqrt(2000*4000)) {
		t.Errorf("p50_geomean_us = %g", got)
	}
	if got := out["p95_geomean_us"]; !near(got, math.Sqrt(3000*16000)) {
		t.Errorf("p95_geomean_us = %g", got)
	}
	if got := out["alloc_kb_per_op"]; !near(got, 2) {
		t.Errorf("alloc_kb_per_op = %g, want 2", got)
	}
}

// The steady p95 ignores the slices a stall inflated.
func TestSteadyP95(t *testing.T) {
	quiet := make([]float64, 40)
	for i := range quiet {
		quiet[i] = float64(100 + i)
	}
	stalled := append([]float64(nil), quiet...)
	for i := 30; i < 40; i++ {
		stalled[i] = 1e6
	}
	slices := [][]float64{quiet, quiet, stalled, quiet, quiet}
	if got := steadyP95(slices, 1e6); got != 137 {
		t.Errorf("steadyP95 = %g, want 137", got)
	}
	// Too few samples per slice: the whole pass's p95 stands.
	if got := steadyP95([][]float64{{1, 2}, {3}, {4}}, 42); got != 42 {
		t.Errorf("steadyP95 without usable slices = %g, want 42", got)
	}
}
