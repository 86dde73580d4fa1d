// Command benchcompare runs the repository benchmark's paired rule
// between a base commit and the working tree, the way every change that
// claims (or must not lose) performance has to (benchmark/README.md,
// "Steadiness"): N pairs of runs per workload on seeds 1..N,
// alternating which side goes first, then for every end-to-end metric
// the two medians, the base's interquartile range, and how many pairs
// the change won.
//
// Usage (from the repository root; `make bench-compare BASE=<ref>`):
//
//	benchcompare -base <git ref> [-pairs 10] [-seconds S] [-workloads a,b]
//
// The base is exported with `git archive` into .bench_build/base and
// built there by its own benchmark/run.sh, so each side runs the
// benchmark source of its own commit; the change side is the working
// tree as it stands. Everything written stays under .bench_build/.
//
// The exit status is 1 only on a regression the benchmark itself would
// reject: a metric whose median is worse than the base's by more than
// its BENCHMARK.json bound, or a larger share of failed operations.
// "better" and "worse" inside the bound are reported, not judged — a
// gain still has to be claimed by hand against the wins and IQR columns.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// manifest is the part of BENCHMARK.json the comparison needs.
type manifest struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// result is the JSON line a benchmark run ends with.
type result struct {
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

func main() {
	base := flag.String("base", "", "git ref of the base commit (required)")
	pairs := flag.Int("pairs", 10, "pairs of runs per workload (seeds 1..pairs)")
	seconds := flag.Int("seconds", 0, "seconds per run (0 = BENCHMARK.json run_seconds)")
	only := flag.String("workloads", "", "comma-separated workloads (default: all)")
	flag.Parse()
	if *base == "" || *pairs < 1 {
		flag.Usage()
		os.Exit(2)
	}
	violations, err := compare(*base, *pairs, *seconds, *only)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcompare:", err)
		os.Exit(2)
	}
	if violations > 0 {
		fmt.Printf("\n%d bound violation(s)\n", violations)
		os.Exit(1)
	}
}

func compare(base string, pairs, seconds int, only string) (violations int, err error) {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return 0, fmt.Errorf("run from the repository root: %w", err)
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return 0, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if seconds == 0 {
		seconds = m.RunSeconds
	}
	baseDir, err := exportBase(base)
	if err != nil {
		return 0, err
	}
	for _, w := range m.Workloads {
		if only != "" && !strings.Contains(","+only+",", ","+w.Name+",") {
			continue
		}
		var baseRuns, changeRuns []result
		for seed := 1; seed <= pairs; seed++ {
			// Alternate which side runs first, so drift in the machine's
			// load falls on both sides alike.
			order := []string{baseDir, "."}
			if seed%2 == 0 {
				order = []string{".", baseDir}
			}
			for _, dir := range order {
				r, err := run(dir, w.Name, seed, seconds)
				if err != nil {
					return 0, err
				}
				if dir == "." {
					changeRuns = append(changeRuns, r)
				} else {
					baseRuns = append(baseRuns, r)
				}
			}
		}
		fmt.Printf("\n%s — %d pairs, seeds 1–%d, %d s per run, base %s\n", w.Name, pairs, pairs, seconds, base)
		fmt.Printf("  %-18s %-5s %14s %12s %14s %8s %7s  %s\n",
			"metric", "unit", "base median", "[base IQR]", "change median", "ratio", "wins", "verdict")
		for _, e := range m.EndToEnd {
			b, c := values(baseRuns, e.Name), values(changeRuns, e.Name)
			bm, cm := quantile(b, 0.5), quantile(c, 0.5)
			higher := e.Better == "higher"
			wins := 0
			for i := range b {
				if c[i] != b[i] && (c[i] > b[i]) == higher {
					wins++
				}
			}
			verdict := "same"
			if cm != bm {
				verdict = "better"
				if (cm > bm) != higher {
					verdict = "worse, inside bound"
					if worseBy(bm, cm, higher) > e.Bound {
						verdict = fmt.Sprintf("VIOLATION: worse by more than %.0f%%", 100*e.Bound)
						violations++
					}
				}
			}
			fmt.Printf("  %-18s %-5s %14.4g %12s %14.4g %7.2fx %4d/%-2d  %s\n", e.Name, e.Unit, bm,
				fmt.Sprintf("[%.3g]", quantile(b, 0.75)-quantile(b, 0.25)), cm, cm/bm, wins, pairs, verdict)
		}
		bf, cf := failedShare(baseRuns), failedShare(changeRuns)
		fmt.Printf("  failed share: base %.3g, change %.3g\n", bf, cf)
		if cf > bf {
			fmt.Println("  VIOLATION: a larger share of operations failed")
			violations++
		}
	}
	return violations, nil
}

// exportBase unpacks ref's tree into .bench_build/base and returns the
// directory.
func exportBase(ref string) (string, error) {
	dir := filepath.Join(".bench_build", "base")
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	archive := exec.Command("git", "archive", "--format=tar", ref)
	unpack := exec.Command("tar", "-x", "-C", dir)
	archive.Stderr, unpack.Stderr = os.Stderr, os.Stderr
	pipe, err := archive.StdoutPipe()
	if err != nil {
		return "", err
	}
	unpack.Stdin = pipe
	if err := unpack.Start(); err != nil {
		return "", err
	}
	if err := archive.Run(); err != nil {
		return "", fmt.Errorf("git archive %s: %w", ref, err)
	}
	if err := unpack.Wait(); err != nil {
		return "", fmt.Errorf("unpacking %s: %w", ref, err)
	}
	return dir, nil
}

// run executes one benchmark run in dir and decodes its result line.
func run(dir, workload string, seed, seconds int) (result, error) {
	cmd := exec.Command("bash", "benchmark/run.sh", "--workload", workload,
		"--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(seconds), "--trace", "0")
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return result{}, fmt.Errorf("%s seed %d in %s: %w", workload, seed, dir, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var r result
	if err := json.Unmarshal(lines[len(lines)-1], &r); err != nil {
		return result{}, fmt.Errorf("%s seed %d in %s: no result line: %w", workload, seed, dir, err)
	}
	return r, nil
}

func values(runs []result, metric string) []float64 {
	out := make([]float64, len(runs))
	for i, r := range runs {
		out[i] = r.Metrics[metric].Value
	}
	return out
}

// quantile interpolates the q-th quantile of xs (left unsorted).
func quantile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// worseBy is how far the change's median is on the wrong side of the
// base's, as a fraction of the base.
func worseBy(base, change float64, higherIsBetter bool) float64 {
	if base == 0 {
		return 0
	}
	if higherIsBetter {
		return (base - change) / base
	}
	return (change - base) / base
}

func failedShare(runs []result) float64 {
	var attempted, failed int64
	for _, r := range runs {
		attempted += r.Attempted
		failed += r.Failed
	}
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}
