package main

import (
	"encoding/json"
	"fmt"
	"sort"
)

// runSeconds is the length of the measured pass the driver asks for.
const runSeconds = 10

// openLoopRate is the fixed arrival rate of the open-loop leg on
// wire_oltp, in requests per second over both connections: about 40 % of
// the seed commit's closed-loop rate on the machine the benchmark was
// sized on. It is frozen here, never derived at run time, so the two
// sides of a comparison are offered the same load.
const openLoopRate = 2500

// metricDef names one metric. bound applies to end-to-end metrics only:
// the share of the parent's median by which a later change may worsen it.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// endToEndDefs are what a user of the system sees, reported on every
// workload by the untraced run. failed_share is carried by the result
// line's attempted/failed counts, not listed here: it is 0 on a correct
// run, and a metric that is 0 cannot be bounded as a share of itself.
//
// The four time-based metrics carry the widest bound the driver allows.
// On the 2-vCPU shared machine the benchmark was sized on, the same
// binary's medians wander by 5-10 % from one set of ten runs to the next
// and by more when a neighbour is busy (see README.md, "Steadiness"); a
// tighter bound would reject changes for the machine's mood. peak_rss_mb
// is at 0.25 for the 8 % spread of wire_oltp's 60 MiB heap, which peaks
// wherever the collector's pacing leaves it.
var endToEndDefs = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"p50_geomean_us", "us", "lower", 0.25},
	{"p95_geomean_us", "us", "lower", 0.25},
	{"cpu_us_per_op", "us", "lower", 0.25},
	{"alloc_kb_per_op", "KiB", "lower", 0.10},
	{"peak_rss_mb", "MiB", "lower", 0.25},
}

type workloadDef struct {
	Name    string   `json:"name"`
	Why     string   `json:"why"`
	classes []string // statement classes, in mix order
	// traceOps caps the ops the traced pass samples. It is sized to bind
	// well before the pass's time cap, so that the counts a traced pass
	// reports repeat exactly for a seed.
	traceOps int
	// markOps is the op count, per second of pass asked for, at which
	// the memory metrics are read (see memMark): a little over half of
	// what the seed commit completes on a quiet machine.
	markOps int
}

var workloadDefs = []workloadDef{
	{"wire_oltp",
		"2 closed-loop clients over loopback TCP, prepared EXECs touching at most 30 rows, 5% writes: framing, session, admission, the DDL lock and the warm compile path are the work, not the engine.",
		[]string{"point", "parts_of", "distinct_elim", "exists_probe", "chain3", "insert_agent"}, 2000, 3000},
	{"embedded_adhoc",
		"One goroutine, statements with drawn literals over 200 parts, more texts than the 4,096-entry caches hold: parse, normal forms, Algorithm 1, rewrites, join order and fingerprinting run cold.",
		[]string{"ex1_lit", "ex2_lit", "ex4_lit", "ex7_lit", "ex9_lit", "disj_lit", "chain3_lit"}, 2000, 1200},
	{"embedded_analytic",
		"One goroutine, host-variable statements with warm caches over 16,000 parts: scan, filter, hash join, dedup and the auto-parallel path are over 95% of each op; compile cost is noise.",
		[]string{"filter_scan", "ex1_elim", "ex2_keep", "ex8_exists", "ex9_intersect", "range_join", "chain3"}, 490, 105},
	{"durable_ingest",
		"One goroutine on the WAL backend, group commit: 64-row INSERT batches then Sync, random-position backfills, readbacks, refused rows: constraint checks, index upkeep, log framing, fsync, checkpoints.",
		[]string{"append_batch", "backfill_batch", "readback", "reject"}, 2000, 600},
}

func findWorkload(name string) *workloadDef {
	for i := range workloadDefs {
		if workloadDefs[i].Name == name {
			return &workloadDefs[i]
		}
	}
	return nil
}

// planOps are the plan.Node.Op values the planner emits.
var planOps = []string{"Scan", "IndexScan", "Filter", "HashJoin", "Product", "Project",
	"DistinctSort", "DistinctHash", "IntersectSortMerge", "ExceptSortMerge"}

// rewriteRules are the rules whose share of ops is tracked.
var rewriteRules = []string{"eliminate-distinct", "subquery-to-join", "subquery-to-distinct-join",
	"intersect-to-exists", "join-elimination"}

// perLayerDefs lists every per-layer metric the traced run reports, in
// layer order. A metric that does not apply to a workload (wal.* on a
// memory-backed one, another workload's classes) reads 0 there.
func perLayerDefs() []metricDef {
	var out []metricDef
	add := func(name, unit, better string) { out = append(out, metricDef{Name: name, Unit: unit, Better: better}) }
	seen := map[string]bool{}
	for _, w := range workloadDefs {
		for _, c := range w.classes {
			if !seen[c] { // chain3 is a class of two workloads
				seen[c] = true
				add("class."+c+".p50_us", "us", "lower")
				add("class."+c+".p95_us", "us", "lower")
			}
		}
	}
	add("client.roundtrip_us", "us", "lower")
	add("client.open.p50_us", "us", "lower")
	add("client.open.p95_us", "us", "lower")
	add("client.open.late_p95_us", "us", "lower")
	add("client.open.backlog_max", "count", "lower")
	add("server.wire_self_us", "us", "lower")
	add("server.frame_encode_us", "us", "lower")
	add("server.frame_decode_us", "us", "lower")
	add("server.req_bytes_per_op", "B", "lower")
	add("server.resp_bytes_per_op", "B", "lower")
	add("server.admission_rejected_share", "ratio", "lower")
	add("sql.parse_us", "us", "lower")
	add("sql.insert_stmt_us_per_row", "us", "lower")
	add("core.analyze_us", "us", "lower")
	add("core.verdict_hit_rate", "ratio", "higher")
	for _, r := range rewriteRules {
		add("core.rewrite_share."+r, "ratio", "higher")
	}
	add("plan.explain_us", "us", "lower")
	add("plan.cache_hit_rate", "ratio", "higher")
	for _, c := range []string{"rows_scanned_per_op", "rows_scanned_per_row_out", "join_pairs_per_op",
		"hash_probes_per_op", "hash_inserts_per_op", "comparisons_per_op", "rows_sorted_per_op",
		"subquery_runs_per_op", "rows_materialized_per_op", "bytes_reserved_per_op"} {
		add("engine."+c, "count", "lower")
	}
	add("engine.index_seeks_per_op", "count", "higher")
	add("engine.parallel_runs_per_op", "count", "higher")
	add("engine.operators_us", "us", "lower")
	for _, op := range planOps {
		add("engine.op."+op+".self_us", "us", "lower")
	}
	add("engine.op.Filter.ns_per_row_in", "ns", "lower")
	add("engine.op.HashJoin.ns_per_row_in", "ns", "lower")
	add("engine.op.Scan.ns_per_row_out", "ns", "lower")
	add("engine.op.DistinctSort.ns_per_row_in", "ns", "lower")
	add("engine.parallel_op_share", "ratio", "higher")
	add("uniqopt.query_us", "us", "lower")
	add("uniqopt.nonoperator_us", "us", "lower")
	add("storage.insert_us_per_row", "us", "lower")
	add("storage.insert_ordered_us_per_row", "us", "lower")
	add("storage.insert_random_us_per_row", "us", "lower")
	add("storage.index_rebuild_ms", "ms", "lower")
	add("storage.heap_bytes_per_user_byte", "ratio", "lower")
	add("wal.append_us_per_row", "us", "lower")
	add("wal.sync_us", "us", "lower")
	add("wal.sync_p95_us", "us", "lower")
	add("wal.syncs_per_krow", "count", "lower")
	add("wal.checkpoints", "count", "lower")
	add("wal.checkpoint_stall_ms", "ms", "lower")
	add("wal.recover_ms", "ms", "lower")
	add("wal.recover_krows_per_s", "1/s", "higher")
	add("wal.snapshot_rows", "count", "higher")
	add("wal.replayed_rows", "count", "lower")
	add("wal.disk_bytes_per_user_byte", "ratio", "lower")
	add("wal.written_bytes_per_user_byte", "ratio", "lower")
	add("metrics.shapes", "count", "lower")
	add("trace.overhead_share", "ratio", "lower")
	return out
}

// manifest renders BENCHMARK.json from the tables above, so the file
// and the program cannot name different metrics.
func manifest() ([]byte, error) {
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	var layers []layer
	for _, d := range perLayerDefs() {
		layers = append(layers, layer{d.Name, d.Unit, d.Better})
	}
	return json.MarshalIndent(struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []metricDef   `json:"end_to_end"`
		PerLayer   []layer       `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		Workloads:  workloadDefs,
		EndToEnd:   endToEndDefs,
		PerLayer:   layers,
	}, "", "  ")
}

// metricSet collects measured values by name.
type metricSet map[string]float64

// resultLine renders the driver's result object: the named metrics of
// defs, every one present (0 when the workload has no such layer).
func resultLine(correct bool, attempted, failed int, defs []metricDef, values metricSet) ([]byte, error) {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := map[string]mv{}
	for _, d := range defs {
		ms[d.Name] = mv{values[d.Name], d.Unit}
	}
	return json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{correct, attempted, failed, ms})
}

// namedValue is one measured value with its unit.
type namedValue struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// ordered lists every measured value: named metrics first in table
// order, then whatever else was measured (per-class p99 and max,
// per-span self times) in name order.
func (values metricSet) ordered() []namedValue {
	units := map[string]string{}
	var out []namedValue
	for _, d := range append(append([]metricDef(nil), endToEndDefs...), perLayerDefs()...) {
		units[d.Name] = d.Unit
		if v, ok := values[d.Name]; ok {
			out = append(out, namedValue{d.Name, v, d.Unit})
		}
	}
	var extra []string
	for name := range values {
		if _, named := units[name]; !named {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	for _, name := range extra {
		out = append(out, namedValue{name, values[name], extraUnit(name)})
	}
	return out
}

// extraUnit reads the unit off an unnamed metric's suffix.
func extraUnit(name string) string {
	for _, s := range []struct{ suffix, unit string }{{"_us", "us"}, {"_ms", "ms"}, {"_s", "s"}, {"_share", "ratio"}} {
		if len(name) > len(s.suffix) && name[len(name)-len(s.suffix):] == s.suffix {
			return s.unit
		}
	}
	return "count"
}

func fmtValue(v float64) string {
	if v == float64(int64(v)) && v < 1e15 && v > -1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%.6g", v)
}
