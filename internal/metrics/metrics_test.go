package metrics

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"
)

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	for _, ns := range []int64{5_000, 10_000, 50_000, 2_000_000, 20_000_000_000} {
		h.Observe(ns)
	}
	if h.count != 5 {
		t.Fatalf("count = %d", h.count)
	}
	if h.max != 20_000_000_000 {
		t.Fatalf("max = %d", h.max)
	}
	// 5µs and 10µs share the first bucket (inclusive upper bound).
	if h.counts[0] != 2 {
		t.Errorf("le=10µs bucket = %d, want 2", h.counts[0])
	}
	if h.counts[NumBuckets-1] != 1 {
		t.Errorf("overflow bucket = %d, want 1", h.counts[NumBuckets-1])
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	if h.Quantile(0.5) != 0 {
		t.Error("empty histogram quantile should be 0")
	}
	// 100 observations spread 1ms..100ms: p50 near 50ms, p99 near
	// 99ms, both within one 1-2-5 bucket of the true value.
	for i := int64(1); i <= 100; i++ {
		h.Observe(i * 1_000_000)
	}
	p50, p99 := h.Quantile(0.50), h.Quantile(0.99)
	if p50 < 20_000_000 || p50 > 50_000_000 {
		t.Errorf("p50 = %d, want ~50ms within bucket resolution", p50)
	}
	if p99 < 50_000_000 || p99 > 100_000_000 {
		t.Errorf("p99 = %d, want ~99ms within bucket resolution", p99)
	}
	if got := h.Quantile(1); got != h.max {
		t.Errorf("q=1 should be max, got %d", got)
	}
	// A single observation pins every quantile to itself (clamped max).
	var one Histogram
	one.Observe(3_000_000)
	if one.Quantile(0.5) != 3_000_000 || one.Quantile(0.99) != 3_000_000 {
		t.Errorf("single-sample quantiles = %d / %d", one.Quantile(0.5), one.Quantile(0.99))
	}
	// Overflow-bucket quantiles report the recorded max.
	var of Histogram
	of.Observe(30_000_000_000)
	if of.Quantile(0.5) != 30_000_000_000 {
		t.Errorf("overflow quantile = %d", of.Quantile(0.5))
	}
}

func TestSnapshotDeterministicAndSorted(t *testing.T) {
	r := New()
	r.ObserveQuery("zeta", 100)
	r.ObserveQuery("alpha", 200)
	r.ObserveQuery("alpha", 300)
	r.ObserveCacheDelta(3, 1)
	r.ObserveRejection()

	a, err := r.JSON()
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("snapshot JSON is nondeterministic:\n%s\n---\n%s", a, b)
	}

	s := r.Snapshot()
	if len(s.Shapes) != 2 || s.Shapes[0].Shape != "alpha" || s.Shapes[1].Shape != "zeta" {
		t.Fatalf("shapes not sorted: %+v", s.Shapes)
	}
	if s.Shapes[0].Count != 2 || s.Shapes[0].SumNanos != 500 {
		t.Errorf("alpha histogram wrong: %+v", s.Shapes[0])
	}
	if s.Cache.Hits != 3 || s.Cache.Misses != 1 || s.Cache.HitRate != 0.75 {
		t.Errorf("cache snapshot wrong: %+v", s.Cache)
	}
	if s.Governor.Rejections != 1 {
		t.Errorf("governor snapshot wrong: %+v", s.Governor)
	}

	var decoded Snapshot
	if err := json.Unmarshal(a, &decoded); err != nil {
		t.Fatalf("snapshot JSON does not round-trip: %v", err)
	}
}

func TestRegistryConcurrent(t *testing.T) {
	r := New()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			shape := []string{"a", "b"}[g%2]
			for i := 0; i < 1000; i++ {
				r.ObserveQuery(shape, int64(i))
				r.ObserveCacheDelta(1, 0)
			}
		}(g)
	}
	wg.Wait()
	s := r.Snapshot()
	var total int64
	for _, ss := range s.Shapes {
		total += ss.Count
	}
	if total != 8000 {
		t.Errorf("lost observations: %d", total)
	}
	if s.Cache.Hits != 8000 {
		t.Errorf("lost cache deltas: %d", s.Cache.Hits)
	}
}
