package lint

import (
	"path/filepath"
	"strings"
	"testing"
)

func TestRunnerSuppressions(t *testing.T) {
	r, err := NewRunner(".", []*Analyzer{TvlBool})
	if err != nil {
		t.Fatal(err)
	}
	findings, sum, err := r.Run([]string{"./internal/lint/testdata/src/fix/allow"})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Findings != 1 || sum.Suppressed != 2 {
		t.Fatalf("summary = %+v, want 1 finding and 2 suppressed; findings: %v", sum, findings)
	}
	var live []Finding
	for _, f := range findings {
		if !f.Suppressed {
			live = append(live, f)
		}
	}
	if len(live) != 1 || !strings.Contains(live[0].Message, "tvl.IsUnknown") {
		t.Fatalf("live findings = %v", live)
	}
}

func TestAllowStale(t *testing.T) {
	r, err := NewRunner(".", []*Analyzer{TvlBool, AllowStale})
	if err != nil {
		t.Fatal(err)
	}
	findings, sum, err := r.Run([]string{"./internal/lint/testdata/src/fix/stale"})
	if err != nil {
		t.Fatal(err)
	}
	// One live suppression, plus two allowstale findings: the stale
	// tvlbool directive and the unknown-analyzer directive.
	if sum.Findings != 2 || sum.Suppressed != 1 {
		t.Fatalf("summary = %+v, want 2 findings and 1 suppressed; findings: %v", sum, findings)
	}
	var stale, unknown int
	for _, f := range findings {
		if f.Suppressed {
			continue
		}
		if f.Analyzer != AllowStale.Name {
			t.Errorf("unexpected analyzer %s: %v", f.Analyzer, f)
		}
		switch {
		case strings.Contains(f.Message, "suppresses no findings"):
			stale++
		case strings.Contains(f.Message, "unknown analyzer"):
			unknown++
		}
	}
	if stale != 1 || unknown != 1 {
		t.Errorf("stale=%d unknown=%d, want 1 and 1; findings: %v", stale, unknown, findings)
	}
}

func TestAllowStaleUndecidableSubset(t *testing.T) {
	// With tvlbool not part of the run, the stale tvlbool directive is
	// undecidable and must not be reported; the unknown-analyzer
	// directive is always reportable.
	r, err := NewRunner(".", []*Analyzer{AllowStale})
	if err != nil {
		t.Fatal(err)
	}
	_, sum, err := r.Run([]string{"./internal/lint/testdata/src/fix/stale"})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Findings != 1 || sum.Suppressed != 0 {
		t.Fatalf("summary = %+v, want exactly the unknown-analyzer finding", sum)
	}
}

func TestAllowStaleDisabled(t *testing.T) {
	// Without allowstale in the run, stale directives are not policed.
	r, err := NewRunner(".", []*Analyzer{TvlBool})
	if err != nil {
		t.Fatal(err)
	}
	_, sum, err := r.Run([]string{"./internal/lint/testdata/src/fix/stale"})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Findings != 0 || sum.Suppressed != 1 {
		t.Fatalf("summary = %+v, want 0 findings and 1 suppressed", sum)
	}
}

func TestExpandPatternsSkipsTestdata(t *testing.T) {
	r, err := NewRunner(".", nil)
	if err != nil {
		t.Fatal(err)
	}
	dirs, err := r.ExpandPatterns([]string{"./internal/lint/..."})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dirs {
		if strings.Contains(d, "testdata") {
			t.Errorf("pattern expansion descended into testdata: %s", d)
		}
	}
	if len(dirs) != 1 {
		t.Errorf("dirs = %v, want just internal/lint", dirs)
	}
}

func TestExpandPatternsExplicitTestdata(t *testing.T) {
	r, err := NewRunner(".", nil)
	if err != nil {
		t.Fatal(err)
	}
	dirs, err := r.ExpandPatterns([]string{"./internal/lint/testdata/src/fix/tvlbool"})
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) != 1 {
		t.Fatalf("dirs = %v", dirs)
	}
}

func TestRunnerOnFixtureFindsViolations(t *testing.T) {
	r, err := NewRunner(".", nil)
	if err != nil {
		t.Fatal(err)
	}
	findings, sum, err := r.Run([]string{"./internal/lint/testdata/src/fix/tvlbool"})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Findings == 0 {
		t.Fatal("runner found nothing in the tvlbool fixture")
	}
	for _, f := range findings {
		if filepath.Base(f.Pos.Filename) != "x.go" {
			t.Errorf("finding outside fixture file: %v", f)
		}
		if f.Analyzer != "tvlbool" {
			t.Errorf("unexpected analyzer %s on tvlbool fixture: %v", f.Analyzer, f)
		}
	}
}

func TestParseAllowsReason(t *testing.T) {
	r, err := NewRunner(".", []*Analyzer{TvlBool})
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(r.Root, "internal", "lint", "testdata", "src", "fix", "allow")
	path, loader := r.importPathFor(dir)
	u, err := loader.Load(path, dir)
	if err != nil {
		t.Fatal(err)
	}
	if path != "fix/allow" {
		t.Errorf("fixture import path = %q, want fix/allow", path)
	}
	allows := parseAllows(u.Files)
	if len(allows) != 2 {
		t.Fatalf("allows = %+v, want 2", allows)
	}
	for _, d := range allows {
		if len(d.Analyzers) != 1 || d.Analyzers[0] != "tvlbool" {
			t.Errorf("directive analyzers = %v", d.Analyzers)
		}
		if !strings.HasPrefix(d.Reason, "reviewed:") {
			t.Errorf("directive reason = %q", d.Reason)
		}
	}
}

func TestFindModuleRoot(t *testing.T) {
	root, mod, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	if mod != "uniqopt" {
		t.Errorf("module path = %q", mod)
	}
	if !strings.HasSuffix(filepath.ToSlash(root), "repo") && root == "" {
		t.Errorf("root = %q", root)
	}
}
