// Command benchrunner regenerates the experiment tables of
// EXPERIMENTS.md: every performance claim in Paulley & Larson (ICDE
// 1994) reproduced on the simulators in this repository.
//
// Usage:
//
//	benchrunner [-exp e1|e2|...|e9|planner|explain|storage|all] [-scale 1.0]
//	            [-sort] [-trials N] [-json FILE]
//
// -scale shrinks or grows the workload sizes; -sort runs E1 against the
// paper's baseline, a sort-based DISTINCT, instead of the hash table the
// database uses (with -exp all, as one more table); -trials overrides
// E8's corpus size; -json
// additionally writes the tables as a JSON array to FILE. -exp explain
// runs the observability experiment: EXPLAIN ANALYZE over the paper's
// examples plus a metrics-registry summary. -exp storage compares the
// in-memory and write-ahead-log backends on the same bulk load (group
// commit and fsync-per-insert ack disciplines) and measures cold-start
// recovery (not part of -exp all).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"uniqopt/internal/bench"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run: e1..e9, planner, explain, storage, or all")
	scale := flag.Float64("scale", 1.0, "workload scale factor")
	sortDistinct := flag.Bool("sort", false, "E1 against the paper's baseline: sort-based DISTINCT instead of hash")
	trials := flag.Int("trials", 0, "E8 corpus size (0 = default)")
	jsonOut := flag.String("json", "", "also write the tables as JSON to this file")
	flag.Parse()

	sc := bench.Scale{Factor: *scale}
	var tables []*bench.Table
	switch strings.ToLower(*exp) {
	case "e1":
		tables = []*bench.Table{bench.E1(sc, *sortDistinct)}
	case "e2":
		tables = []*bench.Table{bench.E2(sc)}
	case "e3":
		tables = []*bench.Table{bench.E3(sc)}
	case "e4":
		tables = []*bench.Table{bench.E4(sc)}
	case "e5":
		tables = []*bench.Table{bench.E5(sc)}
	case "e6":
		tables = []*bench.Table{bench.E6(sc)}
	case "e7":
		tables = []*bench.Table{bench.E7(sc)}
	case "e8":
		tables = []*bench.Table{bench.E8(sc, *trials)}
	case "e9":
		tables = []*bench.Table{bench.E9(sc)}
	case "planner":
		tables = []*bench.Table{bench.EPlanner(sc)}
	case "explain":
		tables = []*bench.Table{bench.EExplain(sc)}
	case "storage":
		tables = []*bench.Table{bench.EStorage(sc)}
	case "all":
		tables = bench.All(sc)
		if *sortDistinct {
			tables = append(tables, bench.E1(sc, true))
		}
	default:
		fmt.Fprintf(os.Stderr, "benchrunner: unknown experiment %q\n", *exp)
		os.Exit(2)
	}
	for i, t := range tables {
		if i > 0 {
			fmt.Println()
		}
		fmt.Print(t.Format())
	}
	if *jsonOut != "" {
		data, err := json.MarshalIndent(tables, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchrunner: marshal: %v\n", err)
			os.Exit(1)
		}
		data = append(data, '\n')
		if err := os.WriteFile(*jsonOut, data, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "benchrunner: %v\n", err)
			os.Exit(1)
		}
	}
}
