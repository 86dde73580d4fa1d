package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"slices"
	"strings"
)

// Summary is the outcome of one driver run.
type Summary struct {
	Packages   int // package units typechecked and analyzed
	Findings   int // findings that remain after suppression
	Suppressed int // findings covered by //lint:allow directives
}

// Runner drives the analyzers over a set of package directories.
type Runner struct {
	Analyzers []*Analyzer
	// Root is the module root directory; Module its import path.
	Root   string
	Module string
	loader *Loader
}

// NewRunner builds a runner for the module containing dir, with the
// given analyzers (nil = All()).
func NewRunner(dir string, analyzers []*Analyzer) (*Runner, error) {
	root, mod, err := FindModuleRoot(dir)
	if err != nil {
		return nil, err
	}
	if analyzers == nil {
		analyzers = All()
	}
	return &Runner{
		Analyzers: analyzers,
		Root:      root,
		Module:    mod,
		loader:    NewLoader(mod, root, ""),
	}, nil
}

// ExpandPatterns resolves go-tool-style package patterns ("./...",
// "./internal/engine", "./internal/...") into package directories.
// Walks skip testdata, vendor, hidden and underscore directories, like
// the go tool; explicitly named directories are always honored, so
// fixtures under testdata can be linted on purpose.
func (r *Runner) ExpandPatterns(patterns []string) ([]string, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	seen := make(map[string]bool)
	var dirs []string
	add := func(d string) {
		if !seen[d] {
			seen[d] = true
			dirs = append(dirs, d)
		}
	}
	for _, pat := range patterns {
		base, recursive := pat, false
		if rest, ok := strings.CutSuffix(pat, "/..."); ok {
			base, recursive = rest, true
		}
		if base == "" || base == "." {
			base = r.Root
		}
		if !filepath.IsAbs(base) {
			base = filepath.Join(r.Root, base)
		}
		if !recursive {
			if hasGoFiles(base) {
				add(base)
			} else {
				return nil, fmt.Errorf("lint: no Go files in %s", base)
			}
			continue
		}
		err := filepath.WalkDir(base, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if path != base && (name == "testdata" || name == "vendor" ||
				strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			if hasGoFiles(path) {
				add(path)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return dirs, nil
}

// Run lints every package named by patterns and returns the findings
// (suppressed ones included, flagged) in deterministic order.
func (r *Runner) Run(patterns []string) ([]Finding, Summary, error) {
	dirs, err := r.ExpandPatterns(patterns)
	if err != nil {
		return nil, Summary{}, err
	}
	var all []Finding
	var sum Summary
	for _, dir := range dirs {
		fs, units, err := r.lintDir(dir)
		if err != nil {
			return nil, Summary{}, err
		}
		sum.Packages += units
		all = append(all, fs...)
	}
	sortFindings(all)
	for _, f := range all {
		if f.Suppressed {
			sum.Suppressed++
		} else {
			sum.Findings++
		}
	}
	return all, sum, nil
}

// importPathFor maps a package directory to its import path. Fixture
// directories under a testdata/src tree get paths relative to that
// tree, and the loader is pointed at it, so fixture stand-ins shadow
// the real repository packages.
func (r *Runner) importPathFor(dir string) (string, *Loader) {
	rel, err := filepath.Rel(r.Root, dir)
	if err != nil || strings.HasPrefix(rel, "..") {
		return filepath.ToSlash(dir), r.loader
	}
	rel = filepath.ToSlash(rel)
	if i := strings.Index(rel+"/", "testdata/src/"); i >= 0 {
		fixRoot := filepath.Join(r.Root, filepath.FromSlash(rel[:i]+"testdata/src"))
		sub, err := filepath.Rel(fixRoot, dir)
		if err == nil {
			return filepath.ToSlash(sub), NewLoader(r.Module, r.Root, fixRoot)
		}
	}
	if rel == "." {
		return r.Module, r.loader
	}
	return r.Module + "/" + rel, r.loader
}

// lintDir analyzes the up-to-three compilation units of one package
// directory: the package itself, the package augmented with in-package
// test files, and the external _test package.
func (r *Runner) lintDir(dir string) ([]Finding, int, error) {
	path, loader := r.importPathFor(dir)
	u, err := loader.Load(path, dir)
	if err != nil {
		return nil, 0, err
	}
	var out []Finding
	units := 0
	lint := func(pkg *types.Package, info *types.Info, unit, reportable []*ast.File) {
		units++
		want := make(map[string]bool, len(reportable))
		for _, f := range reportable {
			want[fset.Position(f.Package).Filename] = true
		}
		for _, f := range r.analyze(pkg, info, unit) {
			if want[f.Pos.Filename] {
				out = append(out, f)
			}
		}
	}
	check := func(path string, unit, reportable []*ast.File) error {
		if len(reportable) == 0 {
			return nil
		}
		pkg, info, err := loader.Check(path, unit)
		if err != nil {
			return err
		}
		lint(pkg, info, unit, reportable)
		return nil
	}
	if len(u.Files) > 0 {
		lint(u.Pkg, u.Info, u.Files, u.Files)
	}
	if err := check(path, append(slices.Clip(u.Files), u.TestFiles...), u.TestFiles); err != nil {
		return nil, 0, err
	}
	if err := check(path+"_test", u.XTestFiles, u.XTestFiles); err != nil {
		return nil, 0, err
	}
	allFiles := slices.Concat(u.Files, u.TestFiles, u.XTestFiles)
	allows, used := applySuppressions(allFiles, out)
	out = append(out, r.checkStaleAllows(allows, used)...)
	return out, units, nil
}

// checkStaleAllows implements the allowstale analyzer (see
// allowstale.go): after suppressions have been applied, a directive
// that suppressed nothing is reported — but only when every analyzer
// it names actually ran, since a subset run cannot prove a directive
// dead. Directives naming unknown analyzers are always reported: they
// never suppressed anything.
func (r *Runner) checkStaleAllows(allows []AllowDirective, used []bool) []Finding {
	enabled := false
	selected := make(map[string]bool, len(r.Analyzers))
	for _, a := range r.Analyzers {
		selected[a.Name] = true
		if a.Name == AllowStale.Name {
			enabled = true
		}
	}
	if !enabled {
		return nil
	}
	known := make(map[string]bool)
	for _, a := range All() {
		known[a.Name] = true
	}
	var out []Finding
	report := func(d AllowDirective, format string, args ...any) {
		out = append(out, Finding{
			Pos:      token.Position{Filename: d.File, Line: d.Line},
			Analyzer: AllowStale.Name,
			Message:  fmt.Sprintf(format, args...),
		})
	}
	for i, d := range allows {
		var unknown []string
		decidable := true
		for _, name := range d.Analyzers {
			if !known[name] {
				unknown = append(unknown, name)
			} else if !selected[name] {
				decidable = false
			}
		}
		if len(unknown) > 0 {
			report(d, "//lint:allow names unknown analyzer(s) %s; the directive cannot suppress anything — fix the name or remove it",
				strings.Join(unknown, ", "))
			continue
		}
		if used[i] || !decidable {
			continue
		}
		report(d, "//lint:allow %s suppresses no findings; a stale directive silently pre-approves the next real finding on this line — remove it",
			strings.Join(d.Analyzers, ","))
	}
	return out
}

// analyze runs every analyzer over one typed unit.
func (r *Runner) analyze(pkg *types.Package, info *types.Info, files []*ast.File) []Finding {
	var out []Finding
	for _, a := range r.Analyzers {
		pass := &Pass{
			Analyzer: a,
			Fset:     fset,
			Files:    files,
			Pkg:      pkg,
			Info:     info,
			report:   func(f Finding) { out = append(out, f) },
		}
		a.Run(pass)
	}
	return out
}

// AllowDirective is one parsed //lint:allow comment.
type AllowDirective struct {
	File      string
	Line      int // the directive's own line; it also covers Line+1
	Analyzers []string
	Reason    string
}

// parseAllows extracts //lint:allow directives from the files'
// comments. Syntax:
//
//	//lint:allow analyzer[,analyzer...] [-- reason]
//
// A directive covers findings on its own line (trailing-comment style)
// and on the immediately following line (preceding-comment style).
func parseAllows(files []*ast.File) []AllowDirective {
	var out []AllowDirective
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//lint:allow")
				if !ok {
					continue
				}
				text = strings.TrimSpace(text)
				reason := ""
				if i := strings.Index(text, "--"); i >= 0 {
					reason = strings.TrimSpace(text[i+2:])
					text = strings.TrimSpace(text[:i])
				}
				names := strings.FieldsFunc(text, func(r rune) bool { return r == ',' || r == ' ' })
				pos := fset.Position(c.Pos())
				out = append(out, AllowDirective{
					File:      pos.Filename,
					Line:      pos.Line,
					Analyzers: names,
					Reason:    reason,
				})
			}
		}
	}
	return out
}

// applySuppressions marks findings covered by an allow directive and
// reports, per directive, whether it suppressed at least one finding
// (used is indexed in parallel with the returned directives).
func applySuppressions(files []*ast.File, findings []Finding) (allows []AllowDirective, used []bool) {
	allows = parseAllows(files)
	used = make([]bool, len(allows))
	if len(allows) == 0 {
		return allows, used
	}
	covered := make(map[string]map[int]map[string][]int) // file → line → analyzer → directive indices
	for di, d := range allows {
		lines := covered[d.File]
		if lines == nil {
			lines = make(map[int]map[string][]int)
			covered[d.File] = lines
		}
		for _, ln := range []int{d.Line, d.Line + 1} {
			set := lines[ln]
			if set == nil {
				set = make(map[string][]int)
				lines[ln] = set
			}
			for _, a := range d.Analyzers {
				set[a] = append(set[a], di)
			}
		}
	}
	for i := range findings {
		if idxs := covered[findings[i].Pos.Filename][findings[i].Pos.Line][findings[i].Analyzer]; len(idxs) > 0 {
			findings[i].Suppressed = true
			for _, di := range idxs {
				used[di] = true
			}
		}
	}
	return allows, used
}

// RelativizeTo rewrites finding filenames relative to dir when
// possible, for stable, readable output.
func RelativizeTo(dir string, findings []Finding) {
	for i := range findings {
		if rel, err := filepath.Rel(dir, findings[i].Pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
			findings[i].Pos.Filename = rel
		}
	}
}
