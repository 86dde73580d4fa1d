// Command uniqlint runs the repository's static-analysis suite
// (internal/lint: syntactic rules for 3VL comparisons, Stats atomics,
// context threading, storage file hygiene and stale suppressions) over
// package patterns, reporting findings as
//
//	file:line: [analyzer] message
//
// and exiting nonzero when any unsuppressed finding remains. It is
// built purely on the standard library's go/ast, go/parser, go/types
// and go/importer; there is no dependency on golang.org/x/tools.
//
// Usage:
//
//	uniqlint [-analyzers tvlbool,ctxflow,...] [-gha] [-q] [packages]
//
// The engine's iterator, governor and batch contracts are not lint
// rules: `go test -tags poison ./...` checks them at run time
// (engine.Checker).
//
// Patterns follow the go tool: "./..." (default), "./internal/engine",
// "./internal/...". Directories under testdata are skipped by "..."
// expansion but may be named explicitly, which is how the golden
// fixture packages are linted on purpose.
//
// -gha emits GitHub Actions ::error workflow commands so a CI lint
// step annotates the offending lines in the pull-request diff; it
// still exits nonzero on unsuppressed findings.
//
// Findings are suppressed line-by-line with
//
//	//lint:allow analyzer[,analyzer...] -- reason
//
// placed on (or immediately above) the offending line; the summary
// counts suppressions so reviews can see how many exceptions exist.
package main

import (
	"flag"
	"fmt"
	"os"

	"uniqopt/internal/lint"
)

func main() {
	var (
		analyzers = flag.String("analyzers", "", "comma-separated analyzer subset (default: all)")
		list      = flag.Bool("list", false, "list analyzers and exit")
		quiet     = flag.Bool("q", false, "suppress the summary line")
		ghaOut    = flag.Bool("gha", false, "emit findings as GitHub Actions ::error annotations")
	)
	flag.Parse()

	if *list {
		for _, a := range lint.All() {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	var selected []*lint.Analyzer
	if *analyzers != "" {
		found, unknown := lint.ByName(*analyzers)
		if len(unknown) > 0 {
			fmt.Fprintf(os.Stderr, "uniqlint: unknown analyzer(s): %v\n", unknown)
			os.Exit(2)
		}
		selected = found
	}

	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(os.Stderr, "uniqlint: %v\n", err)
		os.Exit(2)
	}
	runner, err := lint.NewRunner(cwd, selected)
	if err != nil {
		fmt.Fprintf(os.Stderr, "uniqlint: %v\n", err)
		os.Exit(2)
	}
	findings, sum, err := runner.Run(flag.Args())
	if err != nil {
		fmt.Fprintf(os.Stderr, "uniqlint: %v\n", err)
		os.Exit(2)
	}
	lint.RelativizeTo(cwd, findings)
	if *ghaOut {
		if err := lint.WriteGHA(os.Stdout, findings); err != nil {
			fmt.Fprintf(os.Stderr, "uniqlint: %v\n", err)
			os.Exit(2)
		}
	} else {
		for _, f := range findings {
			if !f.Suppressed {
				fmt.Println(f.String())
			}
		}
	}
	if !*quiet {
		fmt.Fprintf(os.Stderr, "uniqlint: %d package unit(s), %d finding(s), %d suppressed\n",
			sum.Packages, sum.Findings, sum.Suppressed)
	}
	if sum.Findings > 0 {
		os.Exit(1)
	}
}
