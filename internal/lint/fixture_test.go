package lint

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// loadFixture typechecks the fixture package at importPath (relative
// to testdata/src) with the fixture root shadowing the repository, and
// runs the given analyzers over it.
func loadFixture(t *testing.T, importPath string, analyzers ...*Analyzer) []Finding {
	t.Helper()
	fixRoot, err := filepath.Abs(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	root, mod, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	u, err := NewLoader(mod, root, fixRoot).Load(importPath, filepath.Join(fixRoot, filepath.FromSlash(importPath)))
	if err != nil {
		t.Fatal(err)
	}
	out := (&Runner{Analyzers: analyzers}).analyze(u.Pkg, u.Info, u.Files)
	sortFindings(out)
	return out
}

var wantRE = regexp.MustCompile(`// want (".*")\s*$`)

// expectation is one // want "..." comment.
type expectation struct {
	file     string
	line     int
	patterns []*regexp.Regexp
	matched  []bool
}

// parseWants scans the fixture sources for // want "re" ["re"...]
// comments. Scanning raw lines (rather than the AST comment map)
// keeps line attribution trivial.
func parseWants(t *testing.T, importPath string) []*expectation {
	t.Helper()
	dir := filepath.Join("testdata", "src", filepath.FromSlash(importPath))
	matches, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	var out []*expectation
	for _, path := range matches {
		data, err := readFileString(path)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(data, "\n") {
			m := wantRE.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			exp := &expectation{file: filepath.Base(path), line: i + 1}
			for _, q := range splitQuoted(m[1]) {
				re, err := regexp.Compile(q)
				if err != nil {
					t.Fatalf("%s:%d: bad want regexp %q: %v", path, i+1, q, err)
				}
				exp.patterns = append(exp.patterns, re)
				exp.matched = append(exp.matched, false)
			}
			out = append(out, exp)
		}
	}
	return out
}

// splitQuoted splits `"a" "b"` into its quoted segments.
func splitQuoted(s string) []string {
	var out []string
	for {
		i := strings.IndexByte(s, '"')
		if i < 0 {
			return out
		}
		j := strings.IndexByte(s[i+1:], '"')
		if j < 0 {
			return out
		}
		out = append(out, s[i+1:i+1+j])
		s = s[i+j+2:]
	}
}

// checkFixture asserts that findings and want expectations agree
// one-to-one.
func checkFixture(t *testing.T, importPath string, analyzers ...*Analyzer) []Finding {
	t.Helper()
	findings := loadFixture(t, importPath, analyzers...)
	wants := parseWants(t, importPath)
	for _, f := range findings {
		base := filepath.Base(f.Pos.Filename)
		ok := false
		for _, w := range wants {
			if w.file != base || w.line != f.Pos.Line {
				continue
			}
			for i, re := range w.patterns {
				if !w.matched[i] && re.MatchString(f.Message) {
					w.matched[i] = true
					ok = true
					break
				}
			}
			if ok {
				break
			}
		}
		if !ok {
			t.Errorf("unexpected finding: %s", f)
		}
	}
	for _, w := range wants {
		for i, re := range w.patterns {
			if !w.matched[i] {
				t.Errorf("%s:%d: no finding matched want %q", w.file, w.line, re)
			}
		}
	}
	return findings
}

func readFileString(path string) (string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return "", err
	}
	return string(data), nil
}
