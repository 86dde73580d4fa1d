package engine

import (
	"context"
	"runtime/debug"
	"sync"

	"uniqopt/internal/fault"
)

// BatchFunc is the per-batch transform an exchange worker applies:
// rows in, at most as many rows out, work counters into the
// worker-local st (merged into the pipeline's Stats on the consuming
// goroutine).
type BatchFunc func(b Batch, st *Stats) (Batch, error)

// exchangeIter is the pipelined parallelism operator: it fans its
// child's batches out to a fixed pool of workers and merges the
// transformed batches back in input order, so the stream stays
// deterministic. Nothing is ever materialized: at most 2×workers
// batches are in flight.
//
// The child is pulled only from the consuming goroutine (Next); worker
// goroutines see only the batches handed to them, so the child's
// non-atomic Stats increments never race.
type exchangeIter struct {
	child   Iterator
	cols    []string
	st      *Stats
	sg      streamGuard
	workers int
	factory func() BatchFunc

	in        []chan exTask
	out       chan exResult
	wg        sync.WaitGroup
	pending   map[int]exResult
	started   bool
	closed    bool
	childDone bool
	failed    error
	nextW     int // round-robin dispatch target
	seq       int // next sequence number to dispatch
	want      int // next sequence number to emit
	inflight  int
}

type exTask struct {
	seq int
	b   Batch
}

type exResult struct {
	seq int
	b   Batch
	st  Stats
	err error
}

// NewExchangeIter pipelines child through workers parallel instances
// of the transform produced by factory (one instance per worker, so
// transforms may keep per-worker state such as environments or
// arenas). cols names the transformed output columns.
func NewExchangeIter(st *Stats, child Iterator, cols []string, workers int, factory func() BatchFunc) Iterator {
	if workers < 2 {
		workers = 2
	}
	return &exchangeIter{
		child: child, cols: cols, st: st, workers: workers, factory: factory,
	}
}

func (e *exchangeIter) Cols() []string { return e.cols }

// SizeHint passes through the child's bound: a transform emits at most
// the rows it is handed (a filter shrinks, a projection is row-for-row).
func (e *exchangeIter) SizeHint() int { return sizeHint(e.child) }

func (e *exchangeIter) parallelWidth() int {
	if e.started {
		return e.workers
	}
	return 0
}

func (e *exchangeIter) start() {
	e.started = true
	e.st.ParallelRuns++
	e.st.NoteWorkers(e.workers)
	e.pending = make(map[int]exResult, e.workers*2)
	// out is sized for every possible in-flight result so workers never
	// block sending, which would deadlock against Next blocking on a
	// task send to a busy worker.
	e.out = make(chan exResult, e.workers*2+1)
	e.in = make([]chan exTask, e.workers)
	for i := range e.in {
		e.in[i] = make(chan exTask, 1)
		fn := e.factory()
		e.wg.Add(1)
		go func(in <-chan exTask) {
			defer e.wg.Done()
			exWorker(fn, in, e.out)
		}(e.in[i])
	}
}

// exWorker applies fn to each task, recovering panics into contained
// errors so one bad batch degrades the query instead of the process.
func exWorker(fn BatchFunc, in <-chan exTask, out chan<- exResult) {
	for t := range in {
		res := exResult{seq: t.seq}
		func() {
			defer func() {
				if r := recover(); r != nil {
					res.err = &InternalError{Op: "engine.exchange", Value: r, Stack: debug.Stack()}
				}
			}()
			if err := fault.Point(FaultPoolWorker); err != nil {
				res.err = err
				return
			}
			res.b, res.err = fn(t.b, &res.st)
		}()
		out <- res
	}
}

func (e *exchangeIter) fail(err error) error {
	e.failed = err
	return err
}

func (e *exchangeIter) Next(ctx context.Context) (Batch, error) {
	if err := e.sg.begin(ctx, e.st); err != nil {
		return nil, err
	}
	if e.failed != nil {
		return nil, e.failed
	}
	if !e.started {
		e.start()
	}
	for {
		// Emit the next in-order result if it has arrived.
		if r, ok := e.pending[e.want]; ok {
			delete(e.pending, e.want)
			e.want++
			e.inflight--
			if r.err != nil {
				return nil, e.fail(r.err)
			}
			e.st.Add(r.st)
			if len(r.b) == 0 {
				continue
			}
			return e.sg.emit(r.b)
		}
		// Keep the workers fed while there is dispatch capacity.
		if !e.childDone && e.inflight < e.workers*2 {
			b, err := e.child.Next(ctx)
			if err != nil {
				return nil, e.fail(err)
			}
			if b == nil {
				e.childDone = true
			} else {
				e.st.ParallelRows += int64(len(b))
				e.in[e.nextW] <- exTask{seq: e.seq, b: b}
				e.nextW = (e.nextW + 1) % e.workers
				e.seq++
				e.inflight++
				continue
			}
		}
		if e.inflight == 0 {
			if e.childDone {
				return nil, nil
			}
			continue
		}
		// Wait for any worker; ordering is restored via pending.
		r := <-e.out
		e.pending[r.seq] = r
	}
}

func (e *exchangeIter) Close() error {
	if e.closed {
		return nil
	}
	e.closed = true
	if e.started {
		for _, ch := range e.in {
			close(ch)
		}
		e.wg.Wait()
		for len(e.out) > 0 {
			<-e.out
		}
	}
	e.sg.close()
	return e.child.Close()
}
