// Package engine is a golden-fixture stand-in for the real
// uniqopt/internal/engine: the Stats counter struct and Relation, with
// the same shapes the statsatomic analyzer keys on. This
// file plays the role of the real stats.go — it is the one file where
// ad-hoc sync/atomic access to the counters is permitted.
package engine

import (
	"sync/atomic"

	"uniqopt/internal/value"
)

// Stats accumulates operator work counters.
type Stats struct {
	RowsScanned int64
	RowsOutput  int64
	HashProbes  int64
	CacheHits   int64
}

// Add accumulates o into s atomically.
func (s *Stats) Add(o Stats) {
	atomic.AddInt64(&s.RowsScanned, o.RowsScanned)
	atomic.AddInt64(&s.RowsOutput, o.RowsOutput)
	atomic.AddInt64(&s.HashProbes, o.HashProbes)
	atomic.AddInt64(&s.CacheHits, o.CacheHits)
}

// Snapshot returns an atomically loaded copy of s.
func (s *Stats) Snapshot() Stats {
	return Stats{
		RowsScanned: atomic.LoadInt64(&s.RowsScanned),
		RowsOutput:  atomic.LoadInt64(&s.RowsOutput),
		HashProbes:  atomic.LoadInt64(&s.HashProbes),
		CacheHits:   atomic.LoadInt64(&s.CacheHits),
	}
}

// Relation is a materialized multiset of rows.
type Relation struct {
	Cols []string
	Rows []value.Row
}
