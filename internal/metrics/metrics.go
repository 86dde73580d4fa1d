// Package metrics is a dependency-free observability registry for the
// optimizer and engine: per-query-shape latency histograms, analyzer
// cache hit rates and resource-governor rejections. Snapshots are deterministic (shapes sorted, fixed
// bucket layout) and render as JSON; Publish exposes a registry
// through the standard library's expvar endpoint.
//
// The registry is safe for concurrent use: histogram observation is a
// short critical section per shape, the scalar counters are atomics.
package metrics

import (
	"encoding/json"
	"expvar"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// bucketBounds are the histogram's inclusive nanosecond upper bounds:
// a 1-2-5 log series from 10µs to 10s, plus an implicit overflow
// bucket. The series covers everything from a cached analyzer verdict
// to a pathological product join, and is fine enough that
// interpolated quantiles (p50/p99) are meaningful.
var bucketBounds = [...]int64{
	10_000, 20_000, 50_000,
	100_000, 200_000, 500_000,
	1_000_000, 2_000_000, 5_000_000,
	10_000_000, 20_000_000, 50_000_000,
	100_000_000, 200_000_000, 500_000_000,
	1_000_000_000, 2_000_000_000, 5_000_000_000,
	10_000_000_000,
}

// NumBuckets is the bucket count including the overflow bucket.
const NumBuckets = len(bucketBounds) + 1

// Histogram is a fixed-layout latency histogram with count/sum/max.
type Histogram struct {
	counts [NumBuckets]int64
	count  int64
	sum    int64
	max    int64
}

// Observe records one duration in nanoseconds.
func (h *Histogram) Observe(ns int64) {
	i := sort.Search(len(bucketBounds), func(i int) bool { return ns <= bucketBounds[i] })
	h.counts[i]++
	h.count++
	h.sum += ns
	if ns > h.max {
		h.max = ns
	}
}

// Quantile estimates the q-th quantile (0 < q < 1) of the recorded
// durations in nanoseconds by linear interpolation within the bucket
// holding the target rank. The overflow bucket reports the recorded
// max, and every estimate is clamped to it.
func (h *Histogram) Quantile(q float64) int64 {
	if h.count == 0 {
		return 0
	}
	if q >= 1 {
		return h.max
	}
	rank := int64(math.Ceil(q * float64(h.count)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		cum += c
		if cum < rank {
			continue
		}
		if i >= len(bucketBounds) {
			return h.max
		}
		var lo int64
		if i > 0 {
			lo = bucketBounds[i-1]
		}
		hi := bucketBounds[i]
		frac := float64(rank-(cum-c)) / float64(c)
		v := lo + int64(frac*float64(hi-lo))
		if v > h.max {
			v = h.max
		}
		return v
	}
	return h.max
}

// BucketCount is one histogram bucket in a snapshot: the count of
// observations at most UpperNanos (0 = the overflow bucket).
type BucketCount struct {
	UpperNanos int64 `json:"le_ns"`
	Count      int64 `json:"count"`
}

// ShapeSnapshot is one query shape's latency distribution. P50Nanos
// and P99Nanos are interpolated from the bucket layout (see
// Histogram.Quantile).
type ShapeSnapshot struct {
	Shape    string        `json:"shape"`
	Count    int64         `json:"count"`
	SumNanos int64         `json:"sum_ns"`
	MaxNanos int64         `json:"max_ns"`
	P50Nanos int64         `json:"p50_ns"`
	P99Nanos int64         `json:"p99_ns"`
	Buckets  []BucketCount `json:"buckets,omitempty"`
}

// CacheSnapshot reports analyzer-cache effectiveness.
type CacheSnapshot struct {
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	// HitRate is hits/(hits+misses) in [0,1]; 0 when no lookups ran.
	HitRate float64 `json:"hit_rate"`
}

// GovernorSnapshot reports resource-governor activity.
type GovernorSnapshot struct {
	// Rejections counts queries aborted for exceeding MaxRows/MemBudget.
	Rejections int64 `json:"rejections"`
}

// Snapshot is a consistent point-in-time rendering of a Registry,
// deterministically ordered (shapes sorted lexicographically).
type Snapshot struct {
	Shapes   []ShapeSnapshot  `json:"shapes,omitempty"`
	Cache    CacheSnapshot    `json:"cache"`
	Governor GovernorSnapshot `json:"governor"`
}

// Registry accumulates observations. The zero value is not usable;
// call New.
type Registry struct {
	mu     sync.Mutex
	shapes map[string]*Histogram

	cacheHits   atomic.Int64
	cacheMisses atomic.Int64
	rejections  atomic.Int64
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{shapes: make(map[string]*Histogram)}
}

// ObserveQuery records one execution of the given query shape (for
// parameterized workloads the SQL text is the shape — host values
// change, shapes do not).
func (r *Registry) ObserveQuery(shape string, nanos int64) {
	r.mu.Lock()
	h := r.shapes[shape]
	if h == nil {
		h = &Histogram{}
		r.shapes[shape] = h
	}
	h.Observe(nanos)
	r.mu.Unlock()
}

// ObserveCacheDelta accumulates analyzer-cache hit/miss deltas.
func (r *Registry) ObserveCacheDelta(hits, misses int64) {
	r.cacheHits.Add(hits)
	r.cacheMisses.Add(misses)
}

// ObserveRejection counts one governor budget rejection.
func (r *Registry) ObserveRejection() { r.rejections.Add(1) }

// Snapshot renders the registry's current state deterministically.
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	r.mu.Lock()
	names := make([]string, 0, len(r.shapes))
	for name := range r.shapes {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		h := r.shapes[name]
		ss := ShapeSnapshot{
			Shape: name, Count: h.count, SumNanos: h.sum, MaxNanos: h.max,
			P50Nanos: h.Quantile(0.50), P99Nanos: h.Quantile(0.99),
		}
		for i, c := range h.counts {
			if c == 0 {
				continue
			}
			var le int64 // 0 = overflow
			if i < len(bucketBounds) {
				le = bucketBounds[i]
			}
			ss.Buckets = append(ss.Buckets, BucketCount{UpperNanos: le, Count: c})
		}
		s.Shapes = append(s.Shapes, ss)
	}
	r.mu.Unlock()

	s.Cache.Hits = r.cacheHits.Load()
	s.Cache.Misses = r.cacheMisses.Load()
	if total := s.Cache.Hits + s.Cache.Misses; total > 0 {
		s.Cache.HitRate = float64(s.Cache.Hits) / float64(total)
	}
	s.Governor.Rejections = r.rejections.Load()
	return s
}

// JSON renders a snapshot as indented JSON.
func (r *Registry) JSON() ([]byte, error) {
	return json.MarshalIndent(r.Snapshot(), "", "  ")
}

// Publish registers the registry under name on the process-wide expvar
// endpoint (/debug/vars when expvar's handler is mounted). Like
// expvar.Publish it panics if the name is already taken, so publish
// each registry once under a unique name.
func (r *Registry) Publish(name string) {
	expvar.Publish(name, expvar.Func(func() any { return r.Snapshot() }))
}
