// Command benchrunner regenerates the experiment tables of
// EXPERIMENTS.md: every performance claim in Paulley & Larson (ICDE
// 1994) reproduced on the simulators in this repository.
//
// Usage:
//
//	benchrunner [-exp e1|e2|...|e9|all] [-scale 1.0] [-sort] [-trials N]
//
// -scale shrinks or grows the workload sizes; -sort runs E1 against the
// paper's baseline, a sort-based DISTINCT, instead of the hash table the
// database uses (with -exp all, as one more table); -trials overrides
// E8's corpus size (-trials 1000 is core's soundness property exactly:
// same generator, schema and seed).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"uniqopt/internal/bench"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run: e1..e9 or all")
	scale := flag.Float64("scale", 1.0, "workload scale factor")
	sortDistinct := flag.Bool("sort", false, "E1 against the paper's baseline: sort-based DISTINCT instead of hash")
	trials := flag.Int("trials", 0, "E8 corpus size (0 = default)")
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
}
