// Command benchmark is the repository's benchmark: four seeded workloads
// against the system as users get it (uniqopt.Options{}, the server's
// DefaultConfig, default GOMAXPROCS and GC), every result checked
// against a plain-Go oracle. See README.md in this directory.
//
// It reaches the system only through its public surface — the root
// package, internal/server and its client, the parser's entry points,
// and the engine.Stats / plan.Node / wal.Store values those calls hand
// back — so a change to the planner's or the engine's internals cannot
// require a change here.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// instance is one workload, set up and ready to measure.
type instance interface {
	// clients is the number of closed-loop goroutines the measured pass runs.
	clients() int
	// run issues ops in a closed loop until the deadline, recording each.
	run(client int, r *recorder, until time.Time)
	// afterPass reports the counts the measured pass moved.
	afterPass(out metricSet)
	// trace replays sampled ops of the same sequence through nested
	// public calls, one span per call.
	trace(t *tracer, out metricSet) error
	// finish runs what follows the passes: end-of-run checks, and with
	// traced set the legs only the traced run reports.
	finish(out metricSet, traced bool, seconds float64) error
	close() error
}

var setups = map[string]func(seed int64) (instance, error){
	"wire_oltp":         setupWire,
	"embedded_adhoc":    setupAdhoc,
	"embedded_analytic": setupAnalytic,
	"durable_ingest":    setupDurable,
}

// setupReps is how many times a run sets up; setup_s is the median.
const setupReps = 5

// scratch is the run's private directory under .bench_build/ in the
// working directory (the checkout): WAL directories and crash copies
// live there and go when the run ends.
var scratch string

func scratchDir() string {
	if scratch == "" {
		scratch = filepath.Join(".bench_build", fmt.Sprintf("run-%d", os.Getpid()))
		if err := os.MkdirAll(scratch, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(2)
		}
	}
	return scratch
}

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	traceOut string
	out      string
}

func main() {
	var cfg config
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: wire_oltp, embedded_adhoc, embedded_analytic, durable_ingest, or all")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed the inputs are generated from")
	flag.Float64Var(&cfg.seconds, "seconds", runSeconds, "length of the measured pass")
	flag.IntVar(&cfg.trace, "trace", 0, "1 adds the traced pass and reports the per-layer metrics")
	flag.StringVar(&cfg.traceOut, "trace-out", "", "file the spans are written to (default .bench_build/trace/<workload>-<seed>.json)")
	flag.StringVar(&cfg.out, "out", "", "also write the header and every metric to this file as JSON")
	selfcheck := flag.Bool("selfcheck", false, "run two alternating sets of -n untraced runs per workload and compare their medians")
	n := flag.Int("n", 5, "runs per set for -selfcheck")
	printManifest := flag.Bool("manifest", false, "print BENCHMARK.json as the program defines it and exit")
	flag.Parse()

	switch {
	case *printManifest:
		b, err := manifest()
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(2)
		}
		fmt.Println(string(b))
	case *selfcheck:
		os.Exit(runSelfcheck(cfg, *n))
	case cfg.workload == "all":
		code := 0
		for _, w := range workloadDefs {
			c := cfg
			c.workload = w.Name
			if _, err := runChild(c, os.Stdout); err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.Name, err)
				code = 1
			}
		}
		os.Exit(code)
	case findWorkload(cfg.workload) == nil:
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q; want one of %v or all\n", cfg.workload, workloadNames())
		os.Exit(2)
	default:
		os.Exit(runWorkload(cfg))
	}
}

func workloadNames() []string {
	var names []string
	for _, w := range workloadDefs {
		names = append(names, w.Name)
	}
	return names
}

// runWorkload runs one workload in this process and prints its report;
// the last line of standard output is the result object.
func runWorkload(cfg config) int {
	def := findWorkload(cfg.workload)
	setup := setups[def.Name]
	defer func() {
		if scratch != "" {
			os.RemoveAll(scratch)
		}
	}()
	header := map[string]any{
		"workload": def.Name, "seed": cfg.seed, "seconds": cfg.seconds, "trace": cfg.trace,
		"commit": commit(), "go": runtime.Version(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc": runtime.NumCPU(), "cpu": cpuModel(),
	}
	keys := make([]string, 0, len(header))
	for k := range header {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("# %s: %v\n", k, header[k])
	}

	values := metricSet{}
	var inst instance
	var setupS []float64
	for i := 0; i < setupReps; i++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				return fail("close after set-up", err)
			}
			inst = nil
			runtime.GC()
		}
		t0 := time.Now()
		var err error
		if inst, err = setup(cfg.seed); err != nil {
			return fail("set-up", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	values["setup_s"] = median(setupS)

	p := runPass(time.Duration(cfg.seconds*float64(time.Second)), int(cfg.seconds*float64(def.markOps)), inst.clients(), inst.run)
	attempted, failed, byClass := p.summarize(def.classes, values)
	inst.afterPass(values)
	correct := failed == 0 && attempted > 0
	problem := func(what string, err error) {
		correct = false
		fmt.Printf("# FAILED %s: %v\n", what, err)
	}

	if cfg.trace == 1 {
		t := newTracer(def.traceOps, time.Duration(min(cfg.seconds, traceSeconds)*float64(time.Second)))
		if err := inst.trace(t, values); err != nil {
			problem("traced pass", err)
		}
		untraced := map[string]float64{}
		for c, name := range def.classes {
			untraced[name] = byClass[c].p50
		}
		t.report(values, untraced)
		path := cfg.traceOut
		if path == "" {
			path = filepath.Join(".bench_build", "trace", fmt.Sprintf("%s-%d.json", def.Name, cfg.seed))
		}
		if err := t.write(path); err != nil {
			problem("write spans", err)
		}
		fmt.Printf("# spans: %s\n", path)
	}
	if err := inst.finish(values, cfg.trace == 1, cfg.seconds); err != nil {
		problem("end-of-run check", err)
	}
	if err := inst.close(); err != nil {
		problem("close", err)
	}

	fmt.Printf("# ops: %d attempted, %d failed\n", attempted, failed)
	fmt.Printf("# ops/s by slice:")
	for _, r := range p.sliceRates {
		fmt.Printf(" %.0f", r)
	}
	fmt.Println()
	for c, name := range def.classes {
		fmt.Printf("# class %s: %d ops\n", name, byClass[c].n)
	}
	failures.Lock()
	for _, m := range failures.msgs {
		fmt.Printf("# FAILED op: %s\n", m)
	}
	failures.Unlock()
	for _, m := range values.ordered() {
		fmt.Printf("%s %s %s\n", m.Name, fmtValue(m.Value), m.Unit)
	}

	if cfg.out != "" {
		if err := writeReport(cfg.out, header, values); err != nil {
			problem("write -out", err)
		}
	}
	defs := endToEndDefs
	if cfg.trace == 1 {
		defs = perLayerDefs()
	}
	line, err := resultLine(correct, attempted, failed, defs, values)
	if err != nil {
		return fail("encode result", err)
	}
	fmt.Println(string(line))
	if !correct {
		return 1
	}
	return 0
}

func fail(what string, err error) int {
	fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", what, err)
	return 1
}

// writeReport writes the header and every measured value as JSON.
func writeReport(path string, header map[string]any, values metricSet) error {
	b, err := json.MarshalIndent(struct {
		Header  map[string]any `json:"header"`
		Metrics []namedValue   `json:"metrics"`
	}{header, values.ordered()}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
