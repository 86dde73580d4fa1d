package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"time"

	"uniqopt"
	"uniqopt/internal/engine"
	"uniqopt/internal/plan"
	"uniqopt/internal/sql/parser"
)

// span is one timed call into a layer, recorded by the benchmark around
// the public call. Spans of one sampled op share its op id; Parent is
// the id of the span that caused this one (-1 for the op's root).
type span struct {
	ID      int    `json:"id"`
	Op      int    `json:"op"`
	Class   string `json:"class"`
	Name    string `json:"name"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	RowsIn  int64  `json:"rows_in,omitempty"`
	RowsOut int64  `json:"rows_out,omitempty"`
}

// tracer holds the spans of a traced pass in memory, plus the counts
// taken at the same boundaries.
type tracer struct {
	t0       time.Time
	deadline time.Time
	limit    int
	spans    []span
	ops      int

	// From the uniqopt.query probes: engine work and rewrites.
	queries int
	stats   engine.Stats
	rowsOut int64
	rules   map[string]int
	// From the plan trees of the ExplainWith(analyze) probes.
	opNanos, opRowsIn, opRowsOut map[string]int64
	nodes, parallelNodes         int
	operatorUS                   map[string][]float64 // per class: each sampled op's summed operator time
	// From the frame probes.
	framed              int
	reqBytes, respBytes int64
}

// traceSeconds caps a traced pass's duration, as a safety net under the
// workload's op cap.
const traceSeconds = 15

func newTracer(limit int, budget time.Duration) *tracer {
	now := time.Now()
	return &tracer{
		t0: now, deadline: now.Add(budget), limit: limit,
		rules:   map[string]int{},
		opNanos: map[string]int64{}, opRowsIn: map[string]int64{}, opRowsOut: map[string]int64{},
		operatorUS: map[string][]float64{},
	}
}

// traceRand is the traced pass's own parameter stream. The measured
// pass runs for a time, not an op count, so how far it advanced the
// workload's generator differs from run to run; drawing the traced ops
// from a stream of their own is what lets the counts they report repeat
// exactly for a seed.
func traceRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed ^ 0x7472616365)) }

// more reports whether sampled op i should run, and counts it.
func (t *tracer) more(i int) bool {
	if i >= t.limit || time.Now().After(t.deadline) {
		return false
	}
	t.ops = i + 1
	return true
}

func (t *tracer) begin(op int, class, name string, parent int) int {
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Op: op, Class: class, Name: name, Parent: parent,
		Start: time.Since(t.t0).Nanoseconds()})
	return id
}

func (t *tracer) end(id int) { t.spans[id].End = time.Since(t.t0).Nanoseconds() }

// operators attaches a plan tree's per-operator wall times as child
// spans of the ExplainWith(analyze) span that produced it. The engine
// reports durations, not clock readings, so the children are laid end
// to end from the parent's start; what they leave uncovered is the
// parent's self time: everything ExplainWith did that was not an
// operator.
func (t *tracer) operators(parent int, root *plan.Node) {
	p := t.spans[parent]
	at := p.Start
	for _, n := range root.AllNodes() {
		if !n.Analyzed {
			continue
		}
		t.spans = append(t.spans, span{ID: len(t.spans), Op: p.Op, Class: p.Class, Name: "engine.op." + n.Op,
			Parent: parent, Start: at, End: at + n.TimeNanos, RowsIn: n.RowsIn, RowsOut: n.RowsOut})
		at += n.TimeNanos
		t.opNanos[n.Op] += n.TimeNanos
		t.opRowsIn[n.Op] += n.RowsIn
		t.opRowsOut[n.Op] += n.RowsOut
		t.nodes++
		if n.Parallel {
			t.parallelNodes++
		}
	}
	t.operatorUS[p.Class] = append(t.operatorUS[p.Class], float64(at-p.Start)/1e3)
}

// countQuery folds one executed query's engine counters and rewrites in.
func (t *tracer) countQuery(rows *uniqopt.Rows) {
	t.queries++
	t.stats.Add(rows.Stats)
	t.rowsOut += int64(len(rows.Data))
	for _, rw := range rows.Rewrites {
		t.rules[rw.Rule]++
	}
}

// probeQuery issues the nested public calls for one sampled query op:
// ParseQuery, AnalyzeContext (which parses), ExplainWith plan-only
// (which parses and analyses), then ExplainWith executing and
// QueryWithContext. Each probe draws its own parameters, so it meets
// the cache state an untraced op of the class meets and not one its
// sibling probe just warmed. Failures are counted like any op's.
func probeQuery(ctx context.Context, t *tracer, db *uniqopt.DB, id int, class string, root int, draw func() op) bool {
	ok := true
	o := draw()
	s := t.begin(id, class, "sql.parse", root)
	_, err := parser.ParseQuery(o.sql)
	t.end(s)
	ok = ok && err == nil

	o = draw()
	s = t.begin(id, class, "core.analyze", root)
	_, err = db.AnalyzeContext(ctx, o.sql)
	t.end(s)
	ok = ok && err == nil

	o = draw()
	s = t.begin(id, class, "plan.explain", root)
	_, err = db.ExplainWith(ctx, o.sql, o.args, true, false)
	t.end(s)
	ok = ok && err == nil

	o = draw()
	s = t.begin(id, class, "engine.explain_analyze", root)
	ex, err := db.ExplainWith(ctx, o.sql, o.args, true, true)
	t.end(s)
	if err == nil {
		t.operators(s, ex.Root)
	}
	ok = ok && err == nil

	o = draw()
	s = t.begin(id, class, "uniqopt.query", root)
	rows, err := db.QueryWithContext(ctx, o.sql, o.args, true)
	t.end(s)
	var data [][]any
	if err == nil {
		t.countQuery(rows)
		data = rows.Data
	}
	if !ok {
		noteFailure("%s: a traced probe failed", class)
	}
	return verify(class, &o, data, err) && ok
}

// selfTimes gives each span's duration minus the part of it its child
// spans cover (children clipped to the parent, overlaps counted once).
func selfTimes(spans []span) []int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		covered, at := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, at), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				at = hi
			}
		}
		self[i] = (s.End - s.Start) - covered
	}
	return self
}

// byNameClass groups a per-span quantity (microseconds) by span name and
// class.
func (t *tracer) byNameClass(quantity func(i int, s span) float64) map[string]map[string][]float64 {
	out := map[string]map[string][]float64{}
	for i, s := range t.spans {
		m := out[s.Name]
		if m == nil {
			m = map[string][]float64{}
			out[s.Name] = m
		}
		m[s.Class] = append(m[s.Class], quantity(i, s))
	}
	return out
}

// classGeomean aggregates like the end-to-end latency metrics: the
// median within each class, then the geometric mean across classes.
func classGeomean(byClass map[string][]float64) float64 {
	var meds []float64
	for _, xs := range byClass {
		meds = append(meds, median(xs))
	}
	sort.Float64s(meds) // map order must not reach the sum
	return geomean(meds)
}

// report turns the spans and counts into the per-layer metrics.
// untraced holds each class's untraced median latency, for the overhead.
func (t *tracer) report(out metricSet, untraced map[string]float64) {
	dur := t.byNameClass(func(_ int, s span) float64 { return float64(s.End-s.Start) / 1e3 })
	agg := func(name string) float64 { return classGeomean(dur[name]) }
	// excess is outer minus inner, each aggregated over the classes that
	// have both (an INSERT class has no analysis and no operators), and
	// never below zero: the two sides come from different executions.
	excess := func(outer, inner map[string][]float64) float64 {
		a, b := map[string][]float64{}, map[string][]float64{}
		for c, xs := range outer {
			if ys, ok := inner[c]; ok {
				a[c], b[c] = xs, ys
			}
		}
		return max(classGeomean(a)-classGeomean(b), 0)
	}

	out["sql.parse_us"] = agg("sql.parse")
	out["core.analyze_us"] = excess(dur["core.analyze"], dur["sql.parse"])
	out["plan.explain_us"] = agg("plan.explain")
	out["uniqopt.query_us"] = agg("uniqopt.query")
	out["engine.operators_us"] = classGeomean(t.operatorUS)

	// Self time: a span less what its children cover. For the executing
	// ExplainWith that is everything the facade did that was not an
	// operator — parse, analysis, planning, rendering — taken inside one
	// execution. (query_us less operators_us would subtract medians of
	// different executions, and on embedded_analytic, where the answer is
	// a few percent of either, reads their noise.)
	self := selfTimes(t.spans)
	selfUS := t.byNameClass(func(i int, _ span) float64 { return float64(self[i]) / 1e3 })
	out["uniqopt.nonoperator_us"] = classGeomean(selfUS["engine.explain_analyze"])

	if n := float64(t.ops); n > 0 {
		for _, op := range planOps {
			out["engine.op."+op+".self_us"] = float64(t.opNanos[op]) / 1e3 / n
		}
	}
	perRow := func(nanos, rows int64) float64 {
		if rows == 0 {
			return 0
		}
		return float64(nanos) / float64(rows)
	}
	out["engine.op.Filter.ns_per_row_in"] = perRow(t.opNanos["Filter"], t.opRowsIn["Filter"])
	out["engine.op.HashJoin.ns_per_row_in"] = perRow(t.opNanos["HashJoin"], t.opRowsIn["HashJoin"])
	out["engine.op.Scan.ns_per_row_out"] = perRow(t.opNanos["Scan"], t.opRowsOut["Scan"])
	out["engine.op.DistinctSort.ns_per_row_in"] = perRow(t.opNanos["DistinctSort"], t.opRowsIn["DistinctSort"])
	if t.nodes > 0 {
		out["engine.parallel_op_share"] = float64(t.parallelNodes) / float64(t.nodes)
	}

	if q := float64(t.queries); q > 0 {
		st := t.stats.Snapshot()
		out["engine.rows_scanned_per_op"] = float64(st.RowsScanned) / q
		if t.rowsOut > 0 {
			out["engine.rows_scanned_per_row_out"] = float64(st.RowsScanned) / float64(t.rowsOut)
		}
		out["engine.join_pairs_per_op"] = float64(st.JoinPairs) / q
		out["engine.hash_probes_per_op"] = float64(st.HashProbes) / q
		out["engine.hash_inserts_per_op"] = float64(st.HashInserts) / q
		out["engine.comparisons_per_op"] = float64(st.Comparisons) / q
		out["engine.rows_sorted_per_op"] = float64(st.RowsSorted) / q
		out["engine.index_seeks_per_op"] = float64(st.IndexSeeks) / q
		out["engine.subquery_runs_per_op"] = float64(st.SubqueryRuns) / q
		out["engine.parallel_runs_per_op"] = float64(st.ParallelRuns) / q
		out["engine.rows_materialized_per_op"] = float64(st.RowsMaterialized) / q
		out["engine.bytes_reserved_per_op"] = float64(st.BytesReserved) / q
		for _, rule := range rewriteRules {
			out["core.rewrite_share."+rule] = float64(t.rules[rule]) / q
		}
	}

	if dur["client.roundtrip"] != nil {
		out["client.roundtrip_us"] = agg("client.roundtrip")
		out["server.wire_self_us"] = excess(dur["client.roundtrip"], dur["uniqopt.query"])
		out["server.frame_encode_us"] = agg("server.frame_encode")
		out["server.frame_decode_us"] = agg("server.frame_decode")
	}
	if t.framed > 0 {
		out["server.req_bytes_per_op"] = float64(t.reqBytes) / float64(t.framed)
		out["server.resp_bytes_per_op"] = float64(t.respBytes) / float64(t.framed)
	}

	// Tracing overhead: what a sampled op cost with every probe around
	// it, over what the same class costs untraced.
	var shares []float64
	classes := make([]string, 0, len(dur["op"]))
	for c := range dur["op"] {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	for _, c := range classes {
		if u := untraced[c]; u > 0 {
			shares = append(shares, median(dur["op"][c])/u)
		}
	}
	out["trace.overhead_share"] = geomean(shares)

	// Self time per span name: where the traced time went.
	for name, byClass := range selfUS {
		out["span."+name+".self_us"] = classGeomean(byClass)
	}
	out["trace.sampled_ops"] = float64(t.ops)
	out["trace.spans"] = float64(len(t.spans))
}

// write saves the spans as JSON.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	if err := enc.Encode(struct {
		Spans []span `json:"spans"`
	}{t.spans}); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}
