package bench

import (
	"strconv"
	"strings"
	"testing"

	"uniqopt/internal/core"
	"uniqopt/internal/sql/parser"
	"uniqopt/internal/workload"
)

// small is the scale used by unit tests (fast but non-degenerate).
var small = Scale{Factor: 0.05}

func cell(t *testing.T, tab *Table, row, col int) string {
	t.Helper()
	if row >= len(tab.Rows) || col >= len(tab.Rows[row]) {
		t.Fatalf("%s: no cell (%d,%d):\n%s", tab.ID, row, col, tab.Format())
	}
	return tab.Rows[row][col]
}

func cellInt(t *testing.T, tab *Table, row, col int) int64 {
	t.Helper()
	v, err := strconv.ParseInt(cell(t, tab, row, col), 10, 64)
	if err != nil {
		t.Fatalf("%s: cell (%d,%d) = %q is not an int", tab.ID, row, col, cell(t, tab, row, col))
	}
	return v
}

func cellFloat(t *testing.T, tab *Table, row, col int) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(cell(t, tab, row, col), 64)
	if err != nil {
		t.Fatalf("%s: cell (%d,%d) = %q is not a float", tab.ID, row, col, cell(t, tab, row, col))
	}
	return v
}

func TestE1Shape(t *testing.T) {
	tab := E1(small, false)
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	for i := range tab.Rows {
		// Hash distinct: no sorts even in the baseline, but the
		// optimized path still does strictly less comparison work.
		if base, opt := cellInt(t, tab, i, 7), cellInt(t, tab, i, 8); base != 0 || opt != 0 {
			t.Errorf("row %d: sorts = %d base, %d optimized; want none", i, base, opt)
		}
		if cellInt(t, tab, i, 6) >= cellInt(t, tab, i, 5) {
			t.Errorf("row %d: optimized work should drop", i)
		}
	}
}

// The paper's baseline: the retained DISTINCT sorts, the rewrite avoids
// the sort.
func TestE1SortBaseline(t *testing.T) {
	tab := E1(small, true)
	if !strings.Contains(tab.Title, "sort-based DISTINCT") {
		t.Error("sort baseline title missing")
	}
	for i := range tab.Rows {
		if got := cellInt(t, tab, i, 8); got != 0 {
			t.Errorf("row %d: optimized sorts = %d, want 0", i, got)
		}
		if cellInt(t, tab, i, 7) == 0 {
			t.Errorf("row %d: baseline should sort", i)
		}
		if cellInt(t, tab, i, 6) >= cellInt(t, tab, i, 5) {
			t.Errorf("row %d: optimized work should drop", i)
		}
	}
}

func TestE2Shape(t *testing.T) {
	tab := E2(small)
	for i := range tab.Rows {
		if cellInt(t, tab, i, 5) != 0 {
			t.Errorf("row %d: optimized subquery probes = %d, want 0", i, cellInt(t, tab, i, 5))
		}
		if cellInt(t, tab, i, 4) == 0 {
			t.Errorf("row %d: baseline should probe subqueries", i)
		}
	}
}

func TestE3Shape(t *testing.T) {
	tab := E3(small)
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	for i := range tab.Rows {
		if cellInt(t, tab, i, 5) == 0 {
			t.Errorf("row %d: baseline should probe subqueries", i)
		}
	}
}

func TestE4Shape(t *testing.T) {
	tab := E4(small)
	for i := range tab.Rows {
		baseSorts := cellInt(t, tab, i, 4)
		if baseSorts < 2 {
			t.Errorf("row %d: baseline should sort both operands, sorts = %d", i, baseSorts)
		}
		if cellInt(t, tab, i, 7) >= cellInt(t, tab, i, 6) {
			t.Errorf("row %d: optimized should sort fewer rows", i)
		}
	}
}

func TestE5Shape(t *testing.T) {
	tab := E5(small)
	for i := range tab.Rows {
		field := cell(t, tab, i, 2)
		ratio := cellFloat(t, tab, i, 5)
		if field == "PNO" {
			if ratio < 1.99 || ratio > 2.01 {
				t.Errorf("row %d: PNO call ratio = %.2f, want 2.00 (the paper's halving)", i, ratio)
			}
		} else if ratio < 1.0 {
			t.Errorf("row %d: OEM ratio = %.2f, want ≥ 1", i, ratio)
		}
		if cellInt(t, tab, i, 7) > cellInt(t, tab, i, 6) {
			t.Errorf("row %d: nested visits should not exceed join visits", i)
		}
	}
}

func TestE6Shape(t *testing.T) {
	tab := E6(small)
	if len(tab.Rows) != 5 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	prev := 1e18
	for i := range tab.Rows {
		ratio := cellFloat(t, tab, i, 5)
		if ratio < 1.0 {
			t.Errorf("row %d: fetch ratio = %.2f, parent-driven should never fetch more", i, ratio)
		}
		if ratio > prev+1e-9 {
			t.Errorf("row %d: fetch advantage should shrink as selectivity grows (%.2f after %.2f)",
				i, ratio, prev)
		}
		prev = ratio
	}
	// At full selectivity the ratio approaches 2 (join fetches part +
	// supplier; rewrite fetches supplier only).
	last := cellFloat(t, tab, len(tab.Rows)-1, 5)
	if last < 1.5 || last > 3.0 {
		t.Errorf("full-selectivity ratio = %.2f, want ≈2", last)
	}
}

func TestE7Shape(t *testing.T) {
	tab := E7(small)
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// The times are reported, not asserted. What the exact check does is
	// fixed: it enumerates every tuple of the columns' default domains, so
	// each added column multiplies its candidates by that column's domain.
	prev := 0
	for i := range tab.Rows {
		cat, src := buildWideCatalog(int(cellInt(t, tab, i, 0)))
		s, err := parser.ParseSelect(src)
		if err != nil {
			t.Fatal(err)
		}
		d, err := core.DefaultDomains(cat, s)
		if err != nil {
			t.Fatal(err)
		}
		tuples := 1
		for _, vals := range d.Cols {
			tuples *= len(vals)
		}
		if tuples < 2*prev {
			t.Errorf("row %d: the exact check enumerates %d tuples after %d; an added column must multiply them", i, tuples, prev)
		}
		prev = tuples
	}
}

func TestE8Shape(t *testing.T) {
	tab := E8(small, 40)
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	for i := range tab.Rows {
		if cellInt(t, tab, i, 4) != 0 {
			t.Fatalf("row %d: UNSOUND verdicts = %d, want 0\n%s", i, cellInt(t, tab, i, 4), tab.Format())
		}
		if cellInt(t, tab, i, 2) == 0 {
			t.Errorf("row %d: no YES verdicts; corpus is vacuous", i)
		}
	}
}

func TestAllRunsAndFormats(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep is slow")
	}
	tabs := All(Scale{Factor: 0.02})
	if len(tabs) != 9 {
		t.Fatalf("experiments = %d, want 9", len(tabs))
	}
	for _, tab := range tabs {
		out := tab.Format()
		if !strings.Contains(out, tab.ID) || len(out) < 50 {
			t.Errorf("%s: formatting looks wrong:\n%s", tab.ID, out)
		}
	}
}

func TestTableFormatAlignment(t *testing.T) {
	tab := &Table{ID: "T", Title: "x", Columns: []string{"a", "bbbb"}}
	tab.AddRow("1", "2")
	tab.Notes = append(tab.Notes, "hello")
	out := tab.Format()
	if !strings.Contains(out, "a  bbbb") || !strings.Contains(out, "note: hello") {
		t.Errorf("format = %q", out)
	}
}

func TestE9Shape(t *testing.T) {
	tab := E9(small)
	for i := range tab.Rows {
		if cellInt(t, tab, i, 8) != 0 {
			t.Errorf("row %d: optimized join pairs = %d, want 0", i, cellInt(t, tab, i, 8))
		}
		if cellInt(t, tab, i, 6) >= cellInt(t, tab, i, 5) {
			t.Errorf("row %d: optimized should scan fewer rows", i)
		}
	}
}

// E8 is core's TestAlg1SoundAgainstExhaustive run as an experiment: at
// that test's seed (99) and size (1,000 queries) it must report the
// YES and incomplete counts the test logs for the paper-literal
// analyzer and for the one every DB runs. A change to either side that
// moves the counts shows up here.
func TestE8MatchesTheSoundnessProperty(t *testing.T) {
	tab := E8(small, 1000)
	for _, want := range []struct {
		row             int
		name            string
		yes, incomplete int64
	}{
		{0, "paper-literal", 421, 130},
		{3, "all extensions", 488, 63},
	} {
		if got := cell(t, tab, want.row, 0); got != want.name {
			t.Fatalf("row %d is %q, want %q", want.row, got, want.name)
		}
		if yes, inc := cellInt(t, tab, want.row, 2), cellInt(t, tab, want.row, 5); yes != want.yes || inc != want.incomplete {
			t.Errorf("%s: %d YES, %d incomplete; TestAlg1SoundAgainstExhaustive logs %d, %d\n%s",
				want.name, yes, inc, want.yes, want.incomplete, tab.Format())
		}
	}
}

func TestE8ExtensionsReduceIncompleteness(t *testing.T) {
	tab := E8(Scale{Factor: 1}, 150)
	plain := cellInt(t, tab, 0, 5)
	ext := cellInt(t, tab, 1, 5)
	if ext > plain {
		t.Errorf("key-FD extension should not increase incompleteness: %d vs %d", ext, plain)
	}
	if cellInt(t, tab, 1, 2) < cellInt(t, tab, 0, 2) {
		t.Errorf("key-FD extension should not lose YES verdicts")
	}
}

func BenchmarkAnalyzerCold(b *testing.B) {
	cat := workload.PaperCatalog()
	cache := core.NewVerdictCache(0)
	an := core.NewCachedAnalyzer(cat, cache)
	s, err := parser.ParseSelect(workload.PaperQueries["example1"])
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cache.Reset()
		if _, err := an.AnalyzeSelect(s, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAnalyzerWarm(b *testing.B) {
	cat := workload.PaperCatalog()
	cache := core.NewVerdictCache(0)
	an := core.NewCachedAnalyzer(cat, cache)
	s, err := parser.ParseSelect(workload.PaperQueries["example1"])
	if err != nil {
		b.Fatal(err)
	}
	if _, err := an.AnalyzeSelect(s, nil); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := an.AnalyzeSelect(s, nil); err != nil {
			b.Fatal(err)
		}
	}
}
