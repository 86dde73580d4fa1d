package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// BENCHMARK.json at the root of the repository is what `-manifest`
// prints: the file and the program cannot name different metrics.
func TestManifestMatchesBenchmarkJSON(t *testing.T) {
	want, err := manifest()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bytes.TrimSpace(got), bytes.TrimSpace(want)) {
		t.Error("BENCHMARK.json differs from `benchmark -manifest`; regenerate it")
	}
}

// The driver's limits on the manifest.
func TestManifestWithinTheContract(t *testing.T) {
	b, err := manifest()
	if err != nil {
		t.Fatal(err)
	}
	if len(b) > 64<<10 {
		t.Errorf("manifest is %d bytes, over 64 KiB", len(b))
	}
	var m struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []map[string]any
		EndToEnd   []map[string]any `json:"end_to_end"`
		PerLayer   []map[string]any `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatal(err)
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", m.RunSeconds)
	}
	if n := len(m.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	if n := len(m.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(m.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(e map[string]any) string {
		n, _ := e["name"].(string)
		if !nameRE.MatchString(n) {
			t.Errorf("name %q breaks the naming rule", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
		return n
	}
	keys := func(e map[string]any, want ...string) {
		if len(e) != len(want) {
			t.Errorf("%v: want exactly the keys %v", e, want)
		}
		for _, k := range want {
			if _, ok := e[k]; !ok {
				t.Errorf("%v: key %q missing", e, k)
			}
		}
	}
	for _, w := range m.Workloads {
		keys(w, "name", "why")
		name(w)
		if why, _ := w["why"].(string); why == "" || len(why) > 200 {
			t.Errorf("%s: why has %d characters", w["name"], len(why))
		}
	}
	setup := false
	for _, e := range m.EndToEnd {
		keys(e, "name", "unit", "better", "bound")
		n := name(e)
		if u, _ := e["unit"].(string); !unitRE.MatchString(u) {
			t.Errorf("%s: unit %q", n, u)
		}
		if b, _ := e["bound"].(float64); b <= 0 || b > 0.25 {
			t.Errorf("%s: bound %v", n, e["bound"])
		}
		if n == "setup_s" {
			setup = e["unit"] == "s" && e["better"] == "lower"
		}
	}
	if !setup {
		t.Error("no setup_s metric in s, lower is better")
	}
	for _, e := range m.PerLayer {
		keys(e, "name", "unit", "better")
		n := name(e)
		if u, _ := e["unit"].(string); !unitRE.MatchString(u) {
			t.Errorf("%s: unit %q", n, u)
		}
		if b := e["better"]; b != "lower" && b != "higher" {
			t.Errorf("%s: better = %v", n, b)
		}
	}
	// Every workload has a set-up function and every class a metric pair.
	for _, w := range workloadDefs {
		if setups[w.Name] == nil {
			t.Errorf("workload %s has no set-up", w.Name)
		}
		for _, c := range w.classes {
			if !seen["class."+c+".p50_us"] || !seen["class."+c+".p95_us"] {
				t.Errorf("class %s of %s has no latency metrics", c, w.Name)
			}
		}
	}
}

// The result line carries exactly the named metrics, zero where the
// workload has no such layer.
func TestResultLine(t *testing.T) {
	line, err := resultLine(true, 10, 0, endToEndDefs, metricSet{"ops_per_s": 12.5, "class.point.p50_us": 3})
	if err != nil {
		t.Fatal(err)
	}
	var r result
	if err := json.Unmarshal(line, &r); err != nil {
		t.Fatal(err)
	}
	if !r.Correct || r.Attempted != 10 || r.Failed != 0 || len(r.Metrics) != len(endToEndDefs) {
		t.Errorf("result = %+v", r)
	}
	if m := r.Metrics["ops_per_s"]; m.Value != 12.5 || m.Unit != "1/s" {
		t.Errorf("ops_per_s = %+v", m)
	}
	if _, ok := r.Metrics["class.point.p50_us"]; ok {
		t.Error("a per-layer metric leaked into the end-to-end result")
	}
}
