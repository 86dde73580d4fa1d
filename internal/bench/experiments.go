package bench

import (
	"fmt"
	"math/rand"
	"time"

	"uniqopt/internal/core"
	"uniqopt/internal/engine"
	"uniqopt/internal/plan"
	"uniqopt/internal/sql/parser"
	"uniqopt/internal/storage"
	"uniqopt/internal/value"
	"uniqopt/internal/workload"
)

// Scale shrinks or grows the default sweep sizes (1 = the sizes
// reported in EXPERIMENTS.md; tests use smaller scales for speed).
type Scale struct {
	Factor float64
}

func (s Scale) size(base int) int {
	f := s.Factor
	if f <= 0 {
		f = 1
	}
	out := int(float64(base) * f)
	if out < 4 {
		out = 4
	}
	return out
}

func mustDB(cfg workload.Config) *storage.DB {
	db, err := workload.NewDB(cfg)
	if err != nil {
		panic(fmt.Sprintf("bench: workload generation failed: %v", err))
	}
	return db
}

type runOutcome struct {
	res     *plan.Result
	elapsed time.Duration
}

func runPlanner(db *storage.DB, opts plan.Options, src string, hosts map[string]value.Value) runOutcome {
	q, err := parser.ParseQuery(src)
	if err != nil {
		panic(fmt.Sprintf("bench: parse %q: %v", src, err))
	}
	p := plan.NewPlanner(db, opts)
	// Min of three runs: single-shot wall times are noisy at the
	// millisecond scale, and min is the standard robust estimator.
	var best runOutcome
	for rep := 0; rep < 3; rep++ {
		start := time.Now()
		res, err := p.Run(q, func(name string) (value.Value, bool) {
			v, ok := hosts[name]
			return v, ok
		})
		if err != nil {
			panic(fmt.Sprintf("bench: run %q: %v", src, err))
		}
		elapsed := time.Since(start)
		if best.res == nil || elapsed < best.elapsed {
			best = runOutcome{res: res, elapsed: elapsed}
		}
	}
	return best
}

// work is a strategy-neutral operator-work metric: value comparisons
// plus hash-table activity, so sort-based and hash-based duplicate
// elimination are comparable.
func work(s engine.Stats) int64 {
	return s.Comparisons + s.HashProbes + s.HashInserts
}

func verifyEqual(a, b *plan.Result, what string) {
	if !engine.MultisetEqual(a.Rel, b.Rel) {
		panic(fmt.Sprintf("bench: %s: strategies disagree (%d vs %d rows)",
			what, a.Rel.Len(), b.Rel.Len()))
	}
}

// E1 — redundant DISTINCT elimination (Examples 1/4/6, §5.1).
// Baseline keeps the DISTINCT (a hash table over the full result, or,
// with sortDistinct, the sort the paper prices); the rewrite drops it.
// Sweep the supplier cardinality.
func E1(sc Scale, sortDistinct bool) *Table {
	t := &Table{
		ID:    "E1",
		Title: "Redundant DISTINCT elimination (Example 1): baseline deduplicates, rewrite avoids it",
		Columns: []string{"|SUPPLIER|", "|result|", "base µs", "opt µs", "speedup",
			"base work", "opt work", "base sorts", "opt sorts"},
	}
	if sortDistinct {
		t.Title += " [paper baseline: sort-based DISTINCT]"
	}
	src := workload.PaperQueries["example1"]
	for _, base := range []int{500, 2000, 8000} {
		size := sc.size(base)
		cfg := workload.DefaultConfig()
		cfg.Suppliers = size
		cfg.PartsPerSupplier = 10
		cfg.RedFraction = 0.3
		db := mustDB(cfg)
		baseRun := runPlanner(db, plan.Options{SortDistinct: sortDistinct}, src, nil)
		optRun := runPlanner(db, plan.Options{ApplyRewrites: true, SortDistinct: sortDistinct}, src, nil)
		verifyEqual(baseRun.res, optRun.res, "E1")
		t.AddRow(n(int64(size)), n(int64(baseRun.res.Rel.Len())),
			us(baseRun.elapsed.Nanoseconds()), us(optRun.elapsed.Nanoseconds()),
			f(float64(baseRun.elapsed)/float64(optRun.elapsed)),
			n(work(baseRun.res.Stats)), n(work(optRun.res.Stats)),
			n(baseRun.res.Stats.SortRuns), n(optRun.res.Stats.SortRuns))
	}
	t.Notes = append(t.Notes,
		"work = comparisons + hash probes + hash inserts",
		"expected shape: optimized plan does no duplicate elimination (0 result sorts, less work); gap grows with result size")
	return t
}

// E2 — subquery → join (Example 7, Theorem 2). Baseline runs the
// correlated EXISTS as per-row nested-loop probes; the rewrite merges
// it into a hash join.
func E2(sc Scale) *Table {
	t := &Table{
		ID:    "E2",
		Title: "Correlated EXISTS → join (Example 7): nested-loop probes vs hash join",
		Columns: []string{"|SUPPLIER|", "base µs", "opt µs", "speedup",
			"base subq", "opt subq", "base pairs", "opt pairs"},
	}
	src := workload.PaperQueries["example7"]
	for _, base := range []int{200, 800, 3200} {
		size := sc.size(base)
		cfg := workload.DefaultConfig()
		cfg.Suppliers = size
		cfg.PartsPerSupplier = 10
		cfg.NameDupEvery = 4
		db := mustDB(cfg)
		hosts := map[string]value.Value{
			"SUPPLIER-NAME": value.String_("Smith"),
			"PART-NO":       value.Int(3),
		}
		baseRun := runPlanner(db, plan.Options{}, src, hosts)
		optRun := runPlanner(db, plan.Options{ApplyRewrites: true}, src, hosts)
		verifyEqual(baseRun.res, optRun.res, "E2")
		t.AddRow(n(int64(size)),
			us(baseRun.elapsed.Nanoseconds()), us(optRun.elapsed.Nanoseconds()),
			f(float64(baseRun.elapsed)/float64(optRun.elapsed)),
			n(baseRun.res.Stats.SubqueryRuns), n(optRun.res.Stats.SubqueryRuns),
			n(baseRun.res.Stats.JoinPairs), n(optRun.res.Stats.JoinPairs))
	}
	t.Notes = append(t.Notes,
		"expected shape: optimized plan issues 0 subquery probes; margin grows with outer cardinality")
	return t
}

// E3 — subquery → DISTINCT join (Example 8, Corollary 1). The
// subquery matches many rows (red-part density sweep); the rewrite
// converts the per-row probes into one join plus duplicate
// elimination on a key-sized result.
func E3(sc Scale) *Table {
	t := &Table{
		ID:    "E3",
		Title: "EXISTS with many matches → DISTINCT join (Example 8), red density sweep",
		Columns: []string{"red%", "|result|", "base µs", "opt µs", "speedup",
			"base subq", "opt sorts"},
	}
	src := workload.PaperQueries["example8"]
	size := sc.size(1500)
	for _, red := range []float64{0.02, 0.10, 0.40, 0.90} {
		cfg := workload.DefaultConfig()
		cfg.Suppliers = size
		cfg.PartsPerSupplier = 8
		cfg.RedFraction = red
		db := mustDB(cfg)
		baseRun := runPlanner(db, plan.Options{}, src, nil)
		optRun := runPlanner(db, plan.Options{ApplyRewrites: true}, src, nil)
		verifyEqual(baseRun.res, optRun.res, "E3")
		t.AddRow(f(red*100), n(int64(baseRun.res.Rel.Len())),
			us(baseRun.elapsed.Nanoseconds()), us(optRun.elapsed.Nanoseconds()),
			f(float64(baseRun.elapsed)/float64(optRun.elapsed)),
			n(baseRun.res.Stats.SubqueryRuns), n(optRun.res.Stats.SortRuns))
	}
	t.Notes = append(t.Notes,
		"expected shape: join+DISTINCT wins across densities; baseline probe cost is flat, join output grows with density")
	return t
}

// E4 — INTERSECT → EXISTS (Example 9, Theorem 3). Baseline sorts both
// operands and merges; the rewrite chain converts to an EXISTS, then
// to a DISTINCT join.
func E4(sc Scale) *Table {
	t := &Table{
		ID:    "E4",
		Title: "INTERSECT → EXISTS (Example 9): sort-merge both operands vs rewritten join",
		Columns: []string{"|SUPPLIER|", "base µs", "opt µs", "speedup",
			"base sorts", "opt sorts", "base sorted rows", "opt sorted rows"},
	}
	src := workload.PaperQueries["example9"]
	for _, base := range []int{500, 2000, 8000} {
		size := sc.size(base)
		cfg := workload.DefaultConfig()
		cfg.Suppliers = size
		cfg.AgentsPerSupplier = 3
		db := mustDB(cfg)
		baseRun := runPlanner(db, plan.Options{}, src, nil)
		optRun := runPlanner(db, plan.Options{ApplyRewrites: true}, src, nil)
		verifyEqual(baseRun.res, optRun.res, "E4")
		t.AddRow(n(int64(size)),
			us(baseRun.elapsed.Nanoseconds()), us(optRun.elapsed.Nanoseconds()),
			f(float64(baseRun.elapsed)/float64(optRun.elapsed)),
			n(baseRun.res.Stats.SortRuns), n(optRun.res.Stats.SortRuns),
			n(baseRun.res.Stats.RowsSorted), n(optRun.res.Stats.RowsSorted))
	}
	t.Notes = append(t.Notes,
		"expected shape: baseline sorts both operands; rewritten plan sorts at most the (smaller) distinct result")
	return t
}

// E7 — analysis cost (Section 4): Algorithm 1 is polynomial; the
// exact Theorem-1 test is exponential in the number of columns.
func E7(sc Scale) *Table {
	t := &Table{
		ID:      "E7",
		Title:   "Analysis cost: Algorithm 1 (µs) vs exact bounded-domain check (µs)",
		Columns: []string{"columns", "alg1 µs", "exact µs", "ratio"},
	}
	for _, cols := range []int{2, 3, 4, 5} {
		cat, src := buildWideCatalog(cols)
		a := core.NewAnalyzer(cat)
		s, err := parser.ParseSelect(src)
		if err != nil {
			panic(err)
		}
		start := time.Now()
		const algReps = 200
		for i := 0; i < algReps; i++ {
			if _, err := a.AnalyzeSelect(s, nil); err != nil {
				panic(err)
			}
		}
		algPer := time.Since(start).Nanoseconds() / algReps
		d, err := core.DefaultDomains(cat, s)
		if err != nil {
			panic(err)
		}
		start = time.Now()
		if _, _, err := a.ExactUniqueness(s, d, 50_000_000); err != nil {
			panic(err)
		}
		exactNs := time.Since(start).Nanoseconds()
		ratio := float64(exactNs) / float64(algPer)
		t.AddRow(n(int64(cols)), us(algPer), us(exactNs), f(ratio))
	}
	t.Notes = append(t.Notes,
		"expected shape: Algorithm 1 stays µs-flat; the exact check grows exponentially with column count (NP-complete in general)")
	return t
}

// E8 — soundness and incompleteness of Algorithm 1 on a random corpus,
// cross-validated by the exact checker: the corpus of core's
// TestAlg1SoundAgainstExhaustive (workload.RandomBlock over
// workload.SmallCatalog from seed 99) run as an experiment, with counts
// reported.
func E8(sc Scale, trials int) *Table {
	t := &Table{
		ID:      "E8",
		Title:   "Algorithm 1 soundness on random queries (exact checker as ground truth)",
		Columns: []string{"options", "trials", "alg1 YES", "exact unique", "unsound", "incomplete"},
	}
	if trials <= 0 {
		trials = int(200 * sc.Factor)
		if trials < 20 {
			trials = 20
		}
	}
	configs := []struct {
		name string
		opts core.Options
	}{
		{"paper-literal", core.Options{}},
		{"+key-FDs", core.Options{UseKeyFDs: true}},
		{"+key-FDs+is-null", core.Options{UseKeyFDs: true, BindIsNull: true}},
		{"all extensions", core.Options{UseKeyFDs: true, BindIsNull: true, UseCheckConstraints: true}},
	}
	var exactUnique int64
	yes := make([]int64, len(configs))
	unsound := make([]int64, len(configs))
	incomplete := make([]int64, len(configs))
	cat := workload.SmallCatalog()
	r := rand.New(rand.NewSource(99))
	for i := 0; i < trials; i++ {
		src := workload.RandomBlock(r)
		s, err := parser.ParseSelect(src)
		if err != nil {
			panic(fmt.Sprintf("bench: e8 parse %q: %v", src, err))
		}
		d, err := core.DefaultDomains(cat, s)
		if err != nil {
			panic(err)
		}
		exact, _, err := core.NewAnalyzer(cat).ExactUniqueness(s, d, 5_000_000)
		if err != nil {
			panic(err)
		}
		if exact {
			exactUnique++
		}
		for k, c := range configs {
			v, err := (&core.Analyzer{Cat: cat, Opts: c.opts}).AnalyzeSelect(s, nil)
			if err != nil {
				panic(err)
			}
			switch {
			case v.Unique && !exact:
				unsound[k]++
			case v.Unique:
				yes[k]++
			case exact:
				incomplete[k]++
			}
		}
	}
	for k, c := range configs {
		t.AddRow(c.name, n(int64(trials)), n(yes[k]+unsound[k]), n(exactUnique), n(unsound[k]), n(incomplete[k]))
	}
	t.Notes = append(t.Notes,
		"expected shape: unsound = 0 in every configuration; extensions reduce incompleteness, never soundness")
	return t
}
