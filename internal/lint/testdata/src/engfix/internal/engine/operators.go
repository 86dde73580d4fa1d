package engine

import "sync/atomic"

// BadAtomic does ad-hoc atomics on counters outside stats.go: the
// atomic API must stay centralized so merges cannot miss a counter.
func BadAtomic(st *Stats) {
	atomic.AddInt64(&st.RowsScanned, 1) // want "ad-hoc atomic access to Stats.RowsScanned outside stats.go"
	_ = atomic.LoadInt64(&st.HashProbes) // want "ad-hoc atomic access to Stats.HashProbes outside stats.go"
}

// GoodDirect shows the documented engine-internal pattern: direct
// single-goroutine increments on a private Stats, merged via Add.
func GoodDirect(st *Stats, rel *Relation) {
	var local Stats
	local.RowsScanned += int64(len(rel.Rows))
	st.HashProbes++ // engine implementation files may increment directly
	st.Add(local)
}
