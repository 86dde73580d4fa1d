package engine

import (
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
)

// The engine's data-parallel operators split their input across a
// bounded set of workers. The pool size is process-wide: it defaults
// to GOMAXPROCS, can be pinned with the UNIQOPT_WORKERS environment
// variable, and is adjustable at runtime with SetWorkers. A size of 1
// disables the parallel path entirely.

// DefaultParallelThreshold is the minimum input cardinality for an
// operator to take the parallel path. Below it, goroutine fan-out
// costs more than the row work saves.
const DefaultParallelThreshold = 4096

var (
	workersOnce sync.Once
	numWorkers  atomic.Int64
	parThresh   atomic.Int64
)

func initWorkers() {
	workersOnce.Do(func() {
		n := runtime.GOMAXPROCS(0)
		if env := os.Getenv("UNIQOPT_WORKERS"); env != "" {
			if v, err := strconv.Atoi(env); err == nil && v > 0 {
				n = v
			}
		}
		numWorkers.Store(int64(n))
		if parThresh.Load() == 0 {
			parThresh.Store(DefaultParallelThreshold)
		}
	})
}

// Workers reports the configured worker-pool size (≥ 1).
func Workers() int {
	initWorkers()
	return int(numWorkers.Load())
}

// SetWorkers sets the worker-pool size. Values < 1 are clamped to 1.
// It returns the previous size, so callers can restore it.
func SetWorkers(n int) int {
	initWorkers()
	if n < 1 {
		n = 1
	}
	return int(numWorkers.Swap(int64(n)))
}

// ParallelThreshold reports the minimum input size for the parallel
// operator path.
func ParallelThreshold() int {
	initWorkers()
	return int(parThresh.Load())
}

// SetParallelThreshold adjusts the parallel-path cutover (tests use a
// tiny value to exercise the parallel operators on small inputs). It
// returns the previous threshold.
func SetParallelThreshold(n int) int {
	initWorkers()
	if n < 1 {
		n = 1
	}
	return int(parThresh.Swap(int64(n)))
}

// parallelFor splits [0, n) into at most workers contiguous chunks and
// runs body(chunk, lo, hi) on each from its own goroutine, blocking
// until all complete. body must confine its writes to chunk-indexed
// state; merging happens after the barrier.
//
// Panic containment: a panic inside a worker goroutine would otherwise
// kill the whole process (no recover can cross a goroutine boundary).
// Each worker therefore recovers its own panic into a *workerPanic
// carrying the worker's stack; after the barrier — every worker has
// finished, so no goroutine leaks — the first panic (by chunk index,
// for determinism) is re-panicked on the caller's goroutine, where the
// executor/planner boundary converts it to an *InternalError.
func parallelFor(n, workers int, body func(chunk, lo, hi int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		if n > 0 {
			body(0, 0, n)
		}
		return
	}
	panics := make([]*workerPanic, workers)
	var wg sync.WaitGroup
	wg.Add(workers)
	for c := 0; c < workers; c++ {
		lo := c * n / workers
		hi := (c + 1) * n / workers
		go func(chunk, lo, hi int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panics[chunk] = &workerPanic{val: r, stack: debug.Stack()}
				}
			}()
			body(chunk, lo, hi)
		}(c, lo, hi)
	}
	wg.Wait()
	for _, p := range panics {
		if p != nil {
			panic(p)
		}
	}
}

// firstErr returns the lowest-chunk error, keeping failure
// deterministic regardless of worker interleaving.
func firstErr(errs []error) error {
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return nil
}

// shouldParallel reports whether an operator over n input rows should
// take the parallel path, and with how many workers.
func shouldParallel(n int) (int, bool) {
	w := Workers()
	if w <= 1 || n < ParallelThreshold() {
		return 1, false
	}
	return w, true
}
