package main

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// rec is one completed op of the measured pass.
type rec struct {
	class int
	ok    bool
	lat   time.Duration // the timed span: the call into the system, not the oracle
	end   time.Duration // completion time since the pass began
}

// recorder collects one client's ops; each closed-loop goroutine owns
// its own, so recording takes no lock.
type recorder struct {
	start time.Time
	recs  []rec
	mark  *memMark
}

// add records an op whose timed span began at t0 and took lat.
func (r *recorder) add(class int, t0 time.Time, lat time.Duration, ok bool) {
	r.recs = append(r.recs, rec{class, ok, lat, t0.Add(lat).Sub(r.start)})
	r.mark.opDone()
}

// memMark reads the memory metrics when a fixed number of ops have
// completed, not when the clock runs out. How many ops fit in the pass
// depends on how fast the shared machine ran that minute, and a table
// that grows with every op (durable_ingest) or a registry that grows
// with every new text (embedded_adhoc) would make peak memory a measure
// of the machine. The op count is sized to be reached well inside the
// pass; if it is not, the end of the pass stands in.
type memMark struct {
	at         int64 // ops
	done       atomic.Int64
	alloc0     uint64
	reached    bool
	allocBytes uint64
	peakRSS    float64
}

func (m *memMark) opDone() {
	if m.done.Add(1) == m.at {
		m.read()
		m.reached = true
	}
}

func (m *memMark) read() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.allocBytes = ms.TotalAlloc - m.alloc0
	m.peakRSS = peakRSSMiB()
}

// passSlices is how many equal time slices the measured pass is cut
// into. Throughput and CPU per op are the median over slices, so a
// burst of interference from a neighbour on the shared machine moves
// the slices it hits and not the reported value.
const passSlices = 10

// tick is the process state at a slice boundary.
type tick struct {
	at  time.Duration
	cpu time.Duration
}

// pass is the raw outcome of a measured pass.
type pass struct {
	recs       []rec
	ticks      []tick // slice boundaries, first at 0: passSlices+1 unless ticks were dropped
	mark       *memMark
	sliceRates []float64 // ops/s of each slice, for the report
}

// runPass runs the closed loop: clients goroutines each call run until
// the deadline, while a sampler notes CPU time at the slice boundaries.
func runPass(d time.Duration, markOps int, clients int, run func(client int, r *recorder, until time.Time)) pass {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mark := &memMark{at: int64(markOps), alloc0: ms.TotalAlloc}

	start := time.Now()
	until := start.Add(d)
	recs := make([]*recorder, clients)
	var wg sync.WaitGroup
	for c := range recs {
		recs[c] = &recorder{start: start, mark: mark}
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			run(c, recs[c], until)
		}(c)
	}

	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	p := pass{ticks: []tick{{0, cpuTime()}}, mark: mark}
	ticker := time.NewTicker(d / passSlices)
	// A stalled process drops ticks; the pass then has fewer, longer
	// slices rather than running past its deadline to collect ten.
sampling:
	for len(p.ticks) < passSlices {
		select {
		case <-ticker.C:
			p.ticks = append(p.ticks, tick{time.Since(start), cpuTime()})
		case <-done:
			break sampling
		}
	}
	ticker.Stop()
	<-done // the last slice ends when the last in-flight op does
	p.ticks = append(p.ticks, tick{time.Since(start), cpuTime()})

	if !mark.reached {
		mark.read()
		mark.at = mark.done.Load()
	}
	for _, r := range recs {
		p.recs = append(p.recs, r.recs...)
	}
	return p
}

// classStats are one class's latency percentiles in microseconds.
type classStats struct {
	n                  int
	p50, p95, p99, max float64
}

func latencyStats(lats []float64) classStats {
	asc := sorted(lats)
	if len(asc) == 0 {
		return classStats{}
	}
	return classStats{len(asc), percentile(asc, 0.50), percentile(asc, 0.95), percentile(asc, 0.99), asc[len(asc)-1]}
}

// minSliceSamples is how many samples of a class a slice needs before
// its own p95 is taken.
const minSliceSamples = 20

// steadyP95 is the median, over the time slices that hold enough
// samples, of the p95 within the slice. A stall of the shared machine is
// a stretch of time: it lands in a few slices and inflates their tails,
// while a p95 over the whole pass moves as soon as the stall touches one
// op in twenty. With fewer than three usable slices it is the whole
// pass's p95.
func steadyP95(slices [][]float64, whole float64) float64 {
	var p95s []float64
	for _, xs := range slices {
		if len(xs) >= minSliceSamples {
			p95s = append(p95s, percentile(sorted(xs), 0.95))
		}
	}
	if len(p95s) < 3 {
		return whole
	}
	return median(p95s)
}

func micros(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// summarize turns a pass into the end-to-end metrics (setup_s aside) and
// the per-class latency metrics.
func (p *pass) summarize(classes []string, out metricSet) (attempted, failed int, byClass []classStats) {
	nSlices := len(p.ticks) - 1
	sliced := make([][][]float64, len(classes)) // latencies by class and slice
	for c := range sliced {
		sliced[c] = make([][]float64, nSlices)
	}
	// An op belongs to the slice it completed in.
	opsIn := make([]int, nSlices)
	okIn := make([]int, nSlices)
	for _, r := range p.recs {
		attempted++
		if !r.ok {
			failed++
		}
		s := 0
		for s < nSlices-1 && r.end > p.ticks[s+1].at {
			s++
		}
		sliced[r.class][s] = append(sliced[r.class][s], micros(r.lat))
		opsIn[s]++
		if r.ok {
			okIn[s]++
		}
	}

	var rates, cpus []float64
	for s := 0; s < nSlices; s++ {
		wall := p.ticks[s+1].at - p.ticks[s].at
		if wall <= 0 || opsIn[s] == 0 {
			continue
		}
		rates = append(rates, float64(okIn[s])/wall.Seconds())
		cpus = append(cpus, micros(p.ticks[s+1].cpu-p.ticks[s].cpu)/float64(opsIn[s]))
	}
	out["ops_per_s"] = median(rates)
	p.sliceRates = rates
	out["cpu_us_per_op"] = median(cpus)

	byClass = make([]classStats, len(classes))
	var p50s, p95s []float64
	for c, name := range classes {
		var whole []float64
		for _, xs := range sliced[c] {
			whole = append(whole, xs...)
		}
		st := latencyStats(whole)
		st.p95 = steadyP95(sliced[c], st.p95)
		byClass[c] = st
		out["class."+name+".p50_us"] = st.p50
		out["class."+name+".p95_us"] = st.p95
		out["class."+name+".p99_us"] = st.p99
		out["class."+name+".max_us"] = st.max
		out["class."+name+".samples"] = float64(st.n)
		p50s = append(p50s, st.p50)
		p95s = append(p95s, st.p95)
	}
	out["p50_geomean_us"] = geomean(p50s)
	out["p95_geomean_us"] = geomean(p95s)
	if p.mark.at > 0 {
		out["alloc_kb_per_op"] = float64(p.mark.allocBytes) / 1024 / float64(p.mark.at)
	}
	out["peak_rss_mb"] = p.mark.peakRSS
	out["mark.ops"] = float64(p.mark.at)
	if !p.mark.reached {
		out["mark.missed"] = 1
	}
	return attempted, failed, byClass
}
