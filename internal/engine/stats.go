// Package engine implements a multiset execution engine for the SQL
// subset of the paper: scan, selection, projection with ALL/DISTINCT,
// extended Cartesian product, hash join, sort- and hash-based duplicate
// elimination, and INTERSECT/EXCEPT [ALL]. It is one family of batch
// iterators (stream.go): every planned query, and every subquery the
// plan keeps, runs on them. An execution's iterators, batches, rows,
// hash tables, governor and drained result are all carved from its
// Scratch (scratch.go), which every constructor takes explicitly and
// the caller that owns the answer resets; the context an iterator is
// driven under carries only cancellation. Its tests take their expected answers from
// internal/oracle, a definitional evaluator that shares none of its
// code. Every operator is instrumented with counters, because the
// experiments compare strategies by the work they perform
// (comparisons, sort runs, probes) as well as wall time.
// A query runs on the goroutine that drains it: concurrency is between
// queries, never inside one.
package engine

import (
	"fmt"
	"sync/atomic"
)

// Stats accumulates operator work counters across an execution.
//
// An execution increments its own Stats directly, from the one
// goroutine that runs it. Cross-goroutine accumulation — several
// executions merged into one total — must go through Add, which is
// atomic on the destination: concurrent Add calls into a shared Stats
// are race-free.
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
	// ParallelRuns is always zero: no operator runs on more than one
	// goroutine. It stays only because the repository benchmark reads it.
	ParallelRuns int64
	PlanHits     int64 // compiled-statement (plan) cache hits
	PlanMisses   int64 // compiled-statement (plan) cache misses

	// Lifecycle-governor accounting (see lifecycle.go). These are
	// charged at every materialization point whether or not a budget
	// is set, so they double as memory-pressure observability.
	RowsMaterialized int64 // rows charged at materialization points
	BytesReserved    int64 // estimated bytes charged at materialization points

	// Batches counts the batches the iterators emitted (iterator.go).
	Batches int64
}

// statField pairs one counter of two Stats values.
type statField struct{ dst, src *int64 }

// statFieldCount is the number of Stats fields.
const statFieldCount = 16

// fields returns an entry for every struct field, pairing s with o, so
// accumulation code cannot silently miss a newly added field (a
// reflect-based test asserts the enumeration is complete). It returns
// an array, not a slice, so Add and Snapshot — called per plan node
// and per query — enumerate on the stack.
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
		{dst: &s.PlanHits, src: &o.PlanHits},
		{dst: &s.PlanMisses, src: &o.PlanMisses},
		{dst: &s.RowsMaterialized, src: &o.RowsMaterialized},
		{dst: &s.BytesReserved, src: &o.BytesReserved},
		{dst: &s.Batches, src: &o.Batches},
	}
}

// Add accumulates o into s. The merge is atomic per counter on s, so
// concurrent executions may merge into a shared Stats; o must not be
// mutated concurrently with the call.
func (s *Stats) Add(o Stats) {
	for _, f := range s.fields(&o) {
		if v := *f.src; v != 0 {
			atomic.AddInt64(f.dst, v)
		}
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

// String renders the counters compactly. Materialization, batch and
// statement-cache counters are appended only when non-zero.
func (s *Stats) String() string {
	c := s.Snapshot()
	out := fmt.Sprintf(
		"scanned=%d output=%d cmp=%d sorts=%d sorted=%d probes=%d inserts=%d pairs=%d subq=%d seeks=%d",
		c.RowsScanned, c.RowsOutput, c.Comparisons, c.SortRuns, c.RowsSorted,
		c.HashProbes, c.HashInserts, c.JoinPairs, c.SubqueryRuns, c.IndexSeeks)
	if c.RowsMaterialized > 0 {
		out += fmt.Sprintf(" matrows=%d matbytes=%d", c.RowsMaterialized, c.BytesReserved)
	}
	if c.Batches > 0 {
		out += fmt.Sprintf(" batches=%d", c.Batches)
	}
	if c.PlanHits+c.PlanMisses > 0 {
		out += fmt.Sprintf(" planhits=%d planmisses=%d", c.PlanHits, c.PlanMisses)
	}
	return out
}
