package lint

import (
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// analyzerFixtures maps every registered analyzer to the fixture
// package (under testdata/src) that exercises it. Adding an analyzer
// to All() without a fixture fails TestEveryAnalyzerHasFixture until
// this map — and the fixture — exist.
var analyzerFixtures = map[string]string{
	"tvlbool":     "fix/tvlbool",
	"statsatomic": "fix/statsatomic",
	"ctxflow":     "ctxfix/internal/engine",
	"filelife":    "filefix/internal/storage/wal",
	"allowstale":  "fix/stale",
}

func TestEveryAnalyzerHasFixture(t *testing.T) {
	for _, a := range All() {
		dir, ok := analyzerFixtures[a.Name]
		if !ok {
			t.Errorf("analyzer %s has no fixture mapping; add one to analyzerFixtures and a package under testdata/src", a.Name)
			continue
		}
		path := filepath.Join("testdata", "src", filepath.FromSlash(dir))
		entries, err := os.ReadDir(path)
		if err != nil {
			t.Errorf("analyzer %s: fixture dir %s unreadable: %v", a.Name, path, err)
			continue
		}
		hasGo := false
		for _, e := range entries {
			if strings.HasSuffix(e.Name(), ".go") {
				hasGo = true
			}
		}
		if !hasGo {
			t.Errorf("analyzer %s: fixture dir %s has no Go files", a.Name, path)
		}
	}
	for name := range analyzerFixtures {
		if found, _ := ByName(name); len(found) != 1 {
			t.Errorf("analyzerFixtures maps %q, which is not a registered analyzer", name)
		}
	}
}

// repoRootFile reads a file relative to the module root.
func repoRootFile(t *testing.T, name string) string {
	t.Helper()
	root, _, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(root, name))
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

func TestEveryAnalyzerIsDocumented(t *testing.T) {
	readme := repoRootFile(t, "README.md")
	design := repoRootFile(t, "DESIGN.md")
	for _, a := range All() {
		// README documents each analyzer as a table row | `name` | … |.
		if !strings.Contains(readme, "| `"+a.Name+"` |") {
			t.Errorf("analyzer %s has no row in README.md's analyzer table", a.Name)
		}
		// DESIGN.md mentions each analyzer by name at least once.
		if !strings.Contains(design, "`"+a.Name+"`") {
			t.Errorf("analyzer %s is not mentioned in DESIGN.md", a.Name)
		}
	}
}

func TestEveryAnalyzerHasDoc(t *testing.T) {
	for _, a := range All() {
		if strings.TrimSpace(a.Doc) == "" {
			t.Errorf("analyzer %s has an empty Doc string", a.Name)
		}
	}
}

// fullRepo is the one full-repo lint run in a test binary:
// TestFullRepoClean and TestLintRuntimeBudget read its findings, and
// moduleUses the packages it type-checked.
var fullRepo struct {
	once     sync.Once
	runner   *Runner
	findings []Finding
	sum      Summary
	elapsed  time.Duration
	err      error
}

// lintRepo lints the whole module, once per test binary, and returns
// the runner that did it.
func lintRepo(t *testing.T) *Runner {
	t.Helper()
	fullRepo.once.Do(func() {
		r, err := NewRunner(".", nil)
		if err != nil {
			fullRepo.err = err
			return
		}
		start := time.Now()
		fullRepo.findings, fullRepo.sum, fullRepo.err = r.Run([]string{"./..."})
		fullRepo.elapsed = time.Since(start)
		fullRepo.runner = r
	})
	if fullRepo.err != nil {
		t.Fatal(fullRepo.err)
	}
	if fullRepo.sum.Packages == 0 {
		t.Fatal("full-repo lint analyzed zero packages")
	}
	return fullRepo.runner
}

func runFullRepo(t *testing.T) ([]Finding, Summary, time.Duration) {
	t.Helper()
	if testing.Short() {
		t.Skip("full-repo lint skipped in -short mode")
	}
	lintRepo(t)
	return fullRepo.findings, fullRepo.sum, fullRepo.elapsed
}

// TestFullRepoClean is the acceptance gate: the tree itself must be
// finding-free under the complete analyzer suite (suppressions with
// reviewed reasons are the only exceptions, and allowstale polices
// those).
func TestFullRepoClean(t *testing.T) {
	findings, sum, _ := runFullRepo(t)
	if sum.Findings != 0 {
		for _, f := range findings {
			if !f.Suppressed {
				t.Errorf("unsuppressed finding: %s", f)
			}
		}
	}
}

// TestLintRuntimeBudget keeps the full-repo run fast enough that
// `make lint` remains a pre-commit habit rather than a CI-only chore.
// The budget is generous — the run takes a few seconds on a cold
// cache — but a superlinear regression in an analyzer blows straight
// through it.
func TestLintRuntimeBudget(t *testing.T) {
	_, sum, elapsed := runFullRepo(t)
	const budget = 60 * time.Second
	if elapsed > budget {
		t.Errorf("full-repo lint took %v, budget %v", elapsed, budget)
	}
	t.Logf("full-repo lint: %d units, %d findings, %d suppressed in %v",
		sum.Packages, sum.Findings, sum.Suppressed, elapsed)
}
