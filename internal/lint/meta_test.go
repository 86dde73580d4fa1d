package lint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// analyzerFixtures maps every registered analyzer to the fixture
// package (under testdata/src) that exercises it. Adding an analyzer
// to All() without a fixture fails TestEveryAnalyzerHasFixture until
// this map — and the fixture — exist.
var analyzerFixtures = map[string]string{
	"tvlbool":     "fix/tvlbool",
	"rowalias":    "fix/rowalias",
	"statsatomic": "fix/statsatomic",
	"catver":      "catfix/internal/catalog",
	"detorder":    "fix/detorder",
	"ctxflow":     "ctxfix/internal/engine",
	"iterlife":    "iterfix/internal/engine",
	"govpair":     "govfix/internal/engine",
	"iterstate":   "statefix/internal/engine",
	"batchlife":   "batchfix/internal/engine",
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

// TestCatVerProtectsEveryVersionKeyedCache pins the catver contract to
// its consumers: the one versioned cache type must be registered, its
// key struct must carry the catalog schema version (a CatVer field),
// and every package registered as instantiating it — the analyzer's
// verdict cache and the database's statement cache — must read
// Catalog.Version() to fill that field. A new version-keyed cache that
// skips registration, or a key that drops the version, fails here.
func TestCatVerProtectsEveryVersionKeyedCache(t *testing.T) {
	files, ok := VersionKeyedCaches["vcache.Cache"]
	if !ok || len(files) < 3 {
		t.Fatalf("VersionKeyedCaches must register vcache.Cache with its key file and both instantiating packages, got %v", VersionKeyedCaches)
	}
	root, _, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	for name, files := range VersionKeyedCaches {
		if src := repoRootFile(t, filepath.FromSlash(files[0])); !strings.Contains(src, "CatVer") {
			t.Errorf("%s (%s) does not key on the catalog version (no CatVer field); the catver contract no longer protects it", name, files[0])
		}
		// The key is populated by the instantiating packages, so the
		// Version() read is required somewhere in each of them.
		for _, file := range files[1:] {
			dir := filepath.Join(root, filepath.FromSlash(filepath.Dir(file)))
			entries, err := os.ReadDir(dir)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			readsVersion := false
			for _, e := range entries {
				if !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
					continue
				}
				data, err := os.ReadFile(filepath.Join(dir, e.Name()))
				if err != nil {
					t.Fatal(err)
				}
				if strings.Contains(string(data), "vcache.Key{") && strings.Contains(string(data), ".Version()") {
					readsVersion = true
					break
				}
			}
			if !readsVersion {
				t.Errorf("%s: no file in %s builds a vcache.Key from Catalog.Version(); its cache keys cannot track DDL", name, filepath.Dir(file))
			}
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

// TestLintRuntimeBudget keeps the full-repo run (all analyzers, every
// package, dataflow summaries included) fast enough that `make lint`
// stays a pre-commit habit rather than a CI-only chore. The bound is
// generous — the run takes a few seconds on a cold cache — but a
// superlinear regression in the CFG solver or the summary fixpoint
// will blow straight through it.
func TestLintRuntimeBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("runtime budget check skipped in -short mode")
	}
	r, err := NewRunner(".", nil)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, sum, err := r.Run([]string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if sum.Packages == 0 {
		t.Fatal("full-repo lint analyzed zero packages")
	}
	const budget = 60 * time.Second
	if elapsed > budget {
		t.Errorf("full-repo lint took %v, budget %v", elapsed, budget)
	}
	t.Logf("full-repo lint: %d units, %d findings, %d suppressed in %v",
		sum.Packages, sum.Findings, sum.Suppressed, elapsed)
}

// TestFullRepoClean is the acceptance gate: the tree itself must be
// finding-free under the complete analyzer suite (suppressions with
// reviewed reasons are the only exceptions, and allowstale polices
// those).
func TestFullRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("full-repo lint skipped in -short mode")
	}
	r, err := NewRunner(".", nil)
	if err != nil {
		t.Fatal(err)
	}
	findings, sum, err := r.Run([]string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Findings != 0 {
		for _, f := range findings {
			if !f.Suppressed {
				t.Errorf("unsuppressed finding: %s", f)
			}
		}
	}
}
