package engine

import (
	"sync/atomic"

	"uniqopt/internal/value"
)

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

// BadSharedWrite mutates a row reached through the relation's shared
// row storage: operators must copy-on-write.
func BadSharedWrite(rel *Relation) {
	if len(rel.Rows) > 0 && len(rel.Rows[0]) > 0 {
		rel.Rows[0][0] = value.Value{I: 1} // want "in-place write to a row reached through shared storage"
	}
}

// BadParamWrite mutates through a doubly-indexed parameter slice —
// the rows belong to whoever passed them in.
func BadParamWrite(rows []value.Row) {
	rows[0][0] = value.Value{I: 2} // want "in-place write to a row reached through shared storage"
}

// GoodFreshWrite builds fresh rows and fills them before sharing.
func GoodFreshWrite(rel *Relation) *Relation {
	out := &Relation{Cols: rel.Cols}
	for _, row := range rel.Rows {
		nr := make(value.Row, len(row))
		copy(nr, row)
		nr[0] = value.Value{I: 3}
		out.Rows = append(out.Rows, nr)
	}
	return out
}
