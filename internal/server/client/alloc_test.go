//go:build !poison && !race

// Not under the race detector: there sync.Pool drops a random quarter
// of what is put back, the frame buffers among it, so a round trip's
// count varies from run to run.

package client_test

import (
	"runtime/debug"
	"testing"

	"uniqopt/internal/server"
)

// TestExecAllocsDoNotGrowWithRows is the wire path's allocation budget,
// both ends of it: a warm prepared EXEC round trip against an in-process
// server costs the same number of allocations for a one-row answer as
// for a thirty-row one. The server encodes the engine's rows straight
// into its own bytes, and the client decodes an answer into a few slabs
// sized by a counting pass — the one row already needs every kind of
// slab (large integers, strings). The server's execution carves its
// pipeline and result from a recycled frame, so the count is also
// bounded: it is pinned at what a round trip costs. Counts, not clocks:
// the collector is held off so that nothing but the round trip
// allocates.
func TestExecAllocsDoNotGrowWithRows(t *testing.T) {
	c := serve(t, wideDB(t), server.Config{})
	if err := c.Prepare("q", `SELECT W.K, W.S, W.B, W.N FROM W WHERE W.G = :G`); err != nil {
		t.Fatal(err)
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocs := map[int]float64{}
	for group, want := range map[int]int{1: 1, 2: 30} {
		args := map[string]any{"G": int64(group)}
		exec := func() {
			res, err := c.Exec("q", args)
			if err != nil || len(res.Rows) != want {
				t.Fatalf("group %d: %+v, %v", group, res, err)
			}
		}
		for i := 0; i < 3; i++ { // compile, then let both ends settle
			exec()
		}
		allocs[want] = testing.AllocsPerRun(200, exec)
	}
	t.Logf("%v allocations per round trip for 1 row, %v for 30", allocs[1], allocs[30])
	if allocs[30] != allocs[1] {
		t.Errorf("%v allocations per round trip for 30 rows, %v for 1: the wire path allocates per row", allocs[30], allocs[1])
	}
	if allocs[1] > 16 {
		t.Errorf("%v allocations per round trip, want at most 16", allocs[1])
	}
}
