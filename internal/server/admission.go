package server

import (
	"fmt"
	"sync"
)

// AdmissionError reports that the server refused to start work — not
// that the work failed. It is distinct from a BudgetError (which a
// query earns by exceeding its own per-session budget mid-flight):
// an admission rejection costs the server nothing, which is the
// point — under overload the cheap answer is the one at the door.
type AdmissionError struct {
	// Resource names the exhausted limit: "sessions", "concurrency",
	// or "memory" (the global reservation pool).
	Resource string
	Limit    int64
	Used     int64
}

func (e *AdmissionError) Error() string {
	return fmt.Sprintf("server: admission rejected: %s limit reached (%d of %d in use)",
		e.Resource, e.Used, e.Limit)
}

// admission maps the engine's per-query governor onto server-wide
// limits. Each executing query occupies one concurrency slot and
// reserves its session's MemBudget from a global pool, so the sum of
// per-query memory ceilings never exceeds the server's; together
// with the governor actually enforcing each query's ceiling, the
// server's peak query memory is bounded by GlobalMemBudget.
type admission struct {
	mu            sync.Mutex
	maxConcurrent int // 0 = unlimited
	inFlight      int
	memBudget     int64 // 0 = unlimited
	memInUse      int64
}

// acquire claims one concurrency slot and mem bytes from the global
// pool, or returns a typed *AdmissionError without blocking: under
// overload the server answers immediately rather than queueing
// invisible work.
func (a *admission) acquire(mem int64) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.maxConcurrent > 0 && a.inFlight >= a.maxConcurrent {
		return &AdmissionError{Resource: "concurrency", Limit: int64(a.maxConcurrent), Used: int64(a.inFlight)}
	}
	if a.memBudget > 0 && a.memInUse+mem > a.memBudget {
		return &AdmissionError{Resource: "memory", Limit: a.memBudget, Used: a.memInUse}
	}
	a.inFlight++
	a.memInUse += mem
	return nil
}

// release returns what acquire claimed; mem must match the acquire.
func (a *admission) release(mem int64) {
	a.mu.Lock()
	a.inFlight--
	a.memInUse -= mem
	a.mu.Unlock()
}
