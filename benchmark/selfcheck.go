package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

// result is the driver's result object, as a child run prints it.
type result struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// runChild runs one workload in a process of its own — so peak memory
// and allocation belong to that workload alone — and returns the result
// object from the last line of its output. The child's report is copied
// to echo when echo is not nil.
func runChild(cfg config, echo io.Writer) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-workload", cfg.workload, "-seed", strconv.FormatInt(cfg.seed, 10),
		"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "-trace", strconv.Itoa(cfg.trace)}
	if cfg.traceOut != "" {
		args = append(args, "-trace-out", cfg.traceOut)
	}
	if cfg.out != "" {
		args = append(args, "-out", filepath.Join(filepath.Dir(cfg.out), cfg.workload+"-"+filepath.Base(cfg.out)))
	}
	cmd := exec.Command(exe, args...)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	runErr := cmd.Run() // waits for the child to end
	if echo != nil {
		echo.Write(stdout.Bytes())
	}
	if runErr != nil {
		return nil, fmt.Errorf("child run: %w", runErr)
	}
	lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("child printed no result: %w", err)
	}
	if !res.Correct {
		return &res, fmt.Errorf("child run was not correct (%d of %d ops failed)", res.Failed, res.Attempted)
	}
	return &res, nil
}

// runSelfcheck measures the benchmark's own steadiness: per workload two
// sets, A and B, of n untraced runs of this same binary, alternating and
// each run on its own seed. It prints each end-to-end metric's medians
// and quartiles, the spread of each set, and how far B's median is from
// A's, and fails when that distance exceeds the metric's bound.
func runSelfcheck(cfg config, n int) int {
	names := workloadNames()
	if cfg.workload != "" && cfg.workload != "all" {
		if findWorkload(cfg.workload) == nil {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", cfg.workload)
			return 2
		}
		names = []string{cfg.workload}
	}
	code := 0
	for _, name := range names {
		sets := [2]map[string][]float64{{}, {}}
		for i := 0; i < 2*n; i++ {
			c := config{workload: name, seed: cfg.seed + int64(i), seconds: cfg.seconds}
			res, err := runChild(c, nil)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s seed %d: %v\n", name, c.seed, err)
				return 1
			}
			for _, d := range endToEndDefs {
				sets[i%2][d.Name] = append(sets[i%2][d.Name], res.Metrics[d.Name].Value)
			}
			fmt.Fprintf(os.Stderr, "%s: run %d of %d done\n", name, i+1, 2*n)
		}
		fmt.Printf("%s: two sets of %d runs, %gs each, seeds %d..%d\n", name, n, cfg.seconds, cfg.seed, cfg.seed+int64(2*n)-1)
		fmt.Printf("  %-16s %12s %12s %12s %8s | %12s %12s %12s %8s | %8s %6s\n",
			"metric", "A q1", "A median", "A q3", "A spread", "B q1", "B median", "B q3", "B spread", "B vs A", "bound")
		for _, d := range endToEndDefs {
			a, b := sets[0][d.Name], sets[1][d.Name]
			a1, a2, a3 := quartiles(a)
			b1, b2, b3 := quartiles(b)
			diff := 0.0
			if a2 != 0 {
				diff = (b2 - a2) / a2
			}
			verdict := ""
			if math.Abs(diff) > d.Bound {
				verdict = "  MEDIANS DIFFER BY MORE THAN THE BOUND"
				code = 1
			} else if d.Name != "setup_s" && (spread(a) > d.Bound || spread(b) > d.Bound) {
				verdict = "  spread wider than the bound"
				code = 1
			} else if d.Name != "setup_s" && (spread(a) > d.Bound/3 || spread(b) > d.Bound/3) {
				verdict = "  (spread above a third of the bound)"
			}
			fmt.Printf("  %-16s %12.6g %12.6g %12.6g %7.1f%% | %12.6g %12.6g %12.6g %7.1f%% | %+7.1f%% %5.0f%%%s\n",
				d.Name, a1, a2, a3, 100*spread(a), b1, b2, b3, 100*spread(b), 100*diff, 100*d.Bound, verdict)
		}
		// Every run made, in the order made (A1 B1 A2 B2 ...).
		for _, d := range endToEndDefs {
			fmt.Printf("  runs %-16s", d.Name)
			for i := 0; i < 2*n; i++ {
				fmt.Printf(" %.5g", sets[i%2][d.Name][i/2])
			}
			fmt.Println()
		}
	}
	return code
}
