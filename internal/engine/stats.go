// Package engine implements a multiset execution engine for the SQL
// subset of the paper: scan, selection, projection with ALL/DISTINCT,
// extended Cartesian product, hash join, sort- and hash-based duplicate
// elimination, and INTERSECT/EXCEPT [ALL]. It has two halves: one
// family of batch iterators (stream.go) that every planned query runs
// on, and the relation-at-a-time reference Executor (executor.go) those
// pipelines are validated against. Every operator is instrumented with
// counters, because the experiments compare strategies by the work
// they perform (comparisons, sort runs, probes) as well as wall time.
//
// A filter or projection over a large input puts itself on a pipelined
// exchange (exchange.go); serial and parallel execution produce
// byte-identical results.
package engine

import (
	"fmt"
	"sync/atomic"
)

// Stats accumulates operator work counters across an execution.
//
// Within one operator invocation the fields are incremented directly
// by a single goroutine (an exchange gives each worker batch its own
// Stats instance and merges them). Cross-goroutine accumulation must go
// through Add, which is atomic on the destination: concurrent Add
// calls into a shared Stats are race-free.
type Stats struct {
	RowsScanned  int64 // rows read from base tables
	RowsOutput   int64 // rows produced by the root operator
	Comparisons  int64 // value comparisons in sorts, merges and dedup
	SortRuns     int64 // number of sort operations performed
	RowsSorted   int64 // total rows passed through sorts
	HashProbes   int64 // hash table probes (joins, dedup, set ops)
	HashInserts  int64 // hash table inserts
	JoinPairs    int64 // row pairs examined by join/product operators
	SubqueryRuns int64 // EXISTS subquery evaluations
	IndexSeeks   int64 // ordered-index lookups/range scans
	ParallelRuns int64 // operator invocations that took the parallel path
	ParallelRows int64 // rows processed by parallel operator invocations
	CacheHits    int64 // analyzer verdict/normalization cache hits
	CacheMisses  int64 // analyzer verdict/normalization cache misses
	PlanHits     int64 // compiled-statement (plan) cache hits
	PlanMisses   int64 // compiled-statement (plan) cache misses

	// Lifecycle-governor accounting (see lifecycle.go). These are
	// charged at every materialization point whether or not a budget
	// is set, so they double as memory-pressure observability.
	RowsMaterialized int64 // rows charged at materialization points
	BytesReserved    int64 // estimated bytes charged at materialization points

	// Batches counts the batches the iterators emitted (iterator.go);
	// the reference Executor emits none.
	Batches int64

	// WorkersUsed is the effective worker count of the widest parallel
	// dispatch in this execution (0 = fully serial). It is a gauge, not
	// a counter: merging takes the maximum, so a DB-wide accumulation
	// reports the widest fan-out any query achieved. Rendering reads
	// this instead of the current global Workers(), which may have been
	// reconfigured between the run and the render.
	WorkersUsed int64
}

// statField pairs one counter of two Stats values with its merge mode.
type statField struct {
	dst, src *int64
	max      bool // gauge merged by maximum (e.g. WorkersUsed), not sum
}

// statFieldCount is the number of Stats fields.
const statFieldCount = 20

// fields returns an entry for every struct field, pairing s with o, so
// accumulation code cannot silently miss a newly added field (a
// reflect-based test asserts the enumeration is complete). It returns
// an array, not a slice, so Add and Snapshot — called per plan node,
// per exchange batch and per worker chunk — enumerate on the stack.
func (s *Stats) fields(o *Stats) [statFieldCount]statField {
	return [statFieldCount]statField{
		{dst: &s.RowsScanned, src: &o.RowsScanned},
		{dst: &s.RowsOutput, src: &o.RowsOutput},
		{dst: &s.Comparisons, src: &o.Comparisons},
		{dst: &s.SortRuns, src: &o.SortRuns},
		{dst: &s.RowsSorted, src: &o.RowsSorted},
		{dst: &s.HashProbes, src: &o.HashProbes},
		{dst: &s.HashInserts, src: &o.HashInserts},
		{dst: &s.JoinPairs, src: &o.JoinPairs},
		{dst: &s.SubqueryRuns, src: &o.SubqueryRuns},
		{dst: &s.IndexSeeks, src: &o.IndexSeeks},
		{dst: &s.ParallelRuns, src: &o.ParallelRuns},
		{dst: &s.ParallelRows, src: &o.ParallelRows},
		{dst: &s.CacheHits, src: &o.CacheHits},
		{dst: &s.CacheMisses, src: &o.CacheMisses},
		{dst: &s.PlanHits, src: &o.PlanHits},
		{dst: &s.PlanMisses, src: &o.PlanMisses},
		{dst: &s.RowsMaterialized, src: &o.RowsMaterialized},
		{dst: &s.BytesReserved, src: &o.BytesReserved},
		{dst: &s.Batches, src: &o.Batches},
		{dst: &s.WorkersUsed, src: &o.WorkersUsed, max: true},
	}
}

// atomicMax raises *p to v unless it is already at least v.
func atomicMax(p *int64, v int64) {
	for {
		cur := atomic.LoadInt64(p)
		if v <= cur || atomic.CompareAndSwapInt64(p, cur, v) {
			return
		}
	}
}

// Add accumulates o into s. The merge is atomic per counter on s, so
// workers may merge into a shared Stats concurrently; o must not be
// mutated concurrently with the call. Counters are summed; gauges
// (WorkersUsed) take the maximum.
func (s *Stats) Add(o Stats) {
	for _, f := range s.fields(&o) {
		v := *f.src
		if v == 0 {
			continue
		}
		if f.max {
			atomicMax(f.dst, v)
		} else {
			atomic.AddInt64(f.dst, v)
		}
	}
}

// NoteWorkers records that a parallel operator dispatched onto n
// workers, keeping the execution's widest fan-out.
func (s *Stats) NoteWorkers(n int) {
	atomicMax(&s.WorkersUsed, int64(n))
}

// AddCache atomically bumps the analyzer-cache counters.
func (s *Stats) AddCache(hits, misses int64) {
	if hits != 0 {
		atomic.AddInt64(&s.CacheHits, hits)
	}
	if misses != 0 {
		atomic.AddInt64(&s.CacheMisses, misses)
	}
}

// AddPlanCache atomically bumps the compiled-statement cache counters.
func (s *Stats) AddPlanCache(hits, misses int64) {
	if hits != 0 {
		atomic.AddInt64(&s.PlanHits, hits)
	}
	if misses != 0 {
		atomic.AddInt64(&s.PlanMisses, misses)
	}
}

// Snapshot returns an atomically loaded copy of s, safe to read while
// other goroutines Add into it.
func (s *Stats) Snapshot() Stats {
	var out Stats
	for _, f := range out.fields(s) {
		*f.dst = atomic.LoadInt64(f.src)
	}
	return out
}

// String renders the counters compactly. Parallel-path and
// analyzer-cache counters are appended only when non-zero, keeping the
// serial rendering stable.
func (s *Stats) String() string {
	c := s.Snapshot()
	out := fmt.Sprintf(
		"scanned=%d output=%d cmp=%d sorts=%d sorted=%d probes=%d inserts=%d pairs=%d subq=%d seeks=%d",
		c.RowsScanned, c.RowsOutput, c.Comparisons, c.SortRuns, c.RowsSorted,
		c.HashProbes, c.HashInserts, c.JoinPairs, c.SubqueryRuns, c.IndexSeeks)
	if c.ParallelRuns > 0 {
		// WorkersUsed, not Workers(): the pool may have been resized
		// between the execution and this render.
		out += fmt.Sprintf(" parruns=%d parrows=%d workers=%d", c.ParallelRuns, c.ParallelRows, c.WorkersUsed)
	}
	if c.RowsMaterialized > 0 {
		out += fmt.Sprintf(" matrows=%d matbytes=%d", c.RowsMaterialized, c.BytesReserved)
	}
	if c.Batches > 0 {
		out += fmt.Sprintf(" batches=%d", c.Batches)
	}
	if c.CacheHits+c.CacheMisses > 0 {
		out += fmt.Sprintf(" cachehits=%d cachemisses=%d hitrate=%.0f%%",
			c.CacheHits, c.CacheMisses,
			100*float64(c.CacheHits)/float64(c.CacheHits+c.CacheMisses))
	}
	if c.PlanHits+c.PlanMisses > 0 {
		out += fmt.Sprintf(" planhits=%d planmisses=%d", c.PlanHits, c.PlanMisses)
	}
	return out
}
