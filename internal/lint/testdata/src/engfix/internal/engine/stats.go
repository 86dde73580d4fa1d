// Package engine is the golden fixture standing in the engine
// implementation's shoes: its import path ends internal/engine, so the
// statsatomic analyzer applies its engine-side rule.
// This file is named stats.go and therefore owns the atomic API.
package engine

import (
	"sync/atomic"

	"uniqopt/internal/value"
)

// Stats mirrors the real counter struct.
type Stats struct {
	RowsScanned int64
	HashProbes  int64
}

// Add accumulates o into s; ad-hoc atomics are fine here, in stats.go.
func (s *Stats) Add(o Stats) {
	atomic.AddInt64(&s.RowsScanned, o.RowsScanned)
	atomic.AddInt64(&s.HashProbes, o.HashProbes)
}

// Relation mirrors the real materialized-result type.
type Relation struct {
	Cols []string
	Rows []value.Row
}
