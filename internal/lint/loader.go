package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// fset positions every file any Loader in the process parses, and std
// type-checks the standard library from source into it. Both are shared
// because checking the standard library is most of a load's cost and
// the source importer caches what it has checked; stdMu serializes it,
// since it is not safe for concurrent use.
var (
	fset  = token.NewFileSet()
	std   = stdImporter()
	stdMu sync.Mutex
)

// stdImporter builds the source importer with cgo off. With cgo on it
// runs the cgo tool over net and os/user, which takes longer than
// checking them; their pure-Go files declare the same API.
func stdImporter() types.Importer {
	build.Default.CgoEnabled = false
	return importer.ForCompiler(fset, "source", nil)
}

// Loader typechecks packages from source using only the standard
// library. Import paths inside the module resolve to directories under
// ModuleDir; when FixtureDir is set it is consulted first, so golden
// fixture packages can shadow real repository packages with small
// stand-ins that keep the same import paths. Everything else (the
// standard library) is delegated to the shared source importer.
type Loader struct {
	ModulePath string
	ModuleDir  string
	FixtureDir string

	units map[string]*Unit
	busy  map[string]bool
}

// Unit is one package directory, parsed, with its non-test files
// type-checked in full. The check is both what analyzers read and what
// importers of the package see.
type Unit struct {
	Files, TestFiles, XTestFiles []*ast.File
	Pkg                          *types.Package
	Info                         *types.Info
}

// NewLoader builds a loader for the module rooted at moduleDir.
func NewLoader(modulePath, moduleDir, fixtureDir string) *Loader {
	return &Loader{
		ModulePath: modulePath,
		ModuleDir:  moduleDir,
		FixtureDir: fixtureDir,
		units:      make(map[string]*Unit),
		busy:       make(map[string]bool),
	}
}

// dirFor maps an import path to a source directory, or "" when the
// path is not provided by the fixture root or the module (i.e. it is a
// standard-library path).
func (l *Loader) dirFor(path string) string {
	if l.FixtureDir != "" {
		d := filepath.Join(l.FixtureDir, filepath.FromSlash(path))
		if hasGoFiles(d) {
			return d
		}
	}
	if path == l.ModulePath {
		return l.ModuleDir
	}
	if rest, ok := strings.CutPrefix(path, l.ModulePath+"/"); ok {
		return filepath.Join(l.ModuleDir, filepath.FromSlash(rest))
	}
	return ""
}

func hasGoFiles(dir string) bool {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range ents {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			return true
		}
	}
	return false
}

// Import implements types.Importer: module and fixture packages are
// served from Load, standard-library paths from the shared source
// importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	dir := l.dirFor(path)
	if dir == "" {
		stdMu.Lock()
		defer stdMu.Unlock()
		return std.Import(path)
	}
	u, err := l.Load(path, dir)
	if err != nil {
		return nil, err
	}
	if len(u.Files) == 0 {
		return nil, fmt.Errorf("lint: no buildable Go files in %s", dir)
	}
	return u.Pkg, nil
}

// Load parses the package directory dir and type-checks its non-test
// files as the package at importPath, once per Loader.
func (l *Loader) Load(importPath, dir string) (*Unit, error) {
	if u, ok := l.units[importPath]; ok {
		return u, nil
	}
	if l.busy[importPath] {
		return nil, fmt.Errorf("lint: import cycle through %s", importPath)
	}
	l.busy[importPath] = true
	defer delete(l.busy, importPath)

	u := &Unit{}
	var err error
	if u.Files, u.TestFiles, u.XTestFiles, err = parseDir(dir); err != nil {
		return nil, err
	}
	if len(u.Files) > 0 {
		if u.Pkg, u.Info, err = l.Check(importPath, u.Files); err != nil {
			return nil, err
		}
	}
	l.units[importPath] = u
	return u, nil
}

// parseDir parses the directory's buildable Go files, split like the
// go tool splits them: package files, in-package test files, and
// external (_test package) test files. Build constraints are honored
// via go/build.
func parseDir(dir string) (files, testFiles, xtestFiles []*ast.File, err error) {
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		if _, noGo := err.(*build.NoGoError); !noGo {
			return nil, nil, nil, fmt.Errorf("lint: %s: %w", dir, err)
		}
		// Test-only directories are still lintable.
	}
	parse := func(names []string) ([]*ast.File, error) {
		sort.Strings(names)
		var out []*ast.File
		for _, name := range names {
			f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
			if err != nil {
				return nil, err
			}
			out = append(out, f)
		}
		return out, nil
	}
	if bp == nil {
		return nil, nil, nil, nil
	}
	if files, err = parse(bp.GoFiles); err != nil {
		return nil, nil, nil, err
	}
	if testFiles, err = parse(bp.TestGoFiles); err != nil {
		return nil, nil, nil, err
	}
	if xtestFiles, err = parse(bp.XTestGoFiles); err != nil {
		return nil, nil, nil, err
	}
	return files, testFiles, xtestFiles, nil
}

// Check typechecks files as the package at importPath with full type
// information, for analysis. It caches nothing: Load keeps a package's
// non-test check, and a unit with test files must not shadow it.
func (l *Loader) Check(importPath string, files []*ast.File) (*types.Package, *types.Info, error) {
	var errs []error
	conf := types.Config{
		Importer: l,
		Sizes:    types.SizesFor("gc", build.Default.GOARCH),
		Error:    func(err error) { errs = append(errs, err) },
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	pkg, err := conf.Check(importPath, fset, files, info)
	if len(errs) > 0 {
		return nil, nil, fmt.Errorf("lint: typecheck %s: %v", importPath, errs[0])
	}
	if err != nil {
		return nil, nil, fmt.Errorf("lint: typecheck %s: %w", importPath, err)
	}
	return pkg, info, nil
}

// FindModuleRoot walks upward from dir to the directory containing
// go.mod and returns that directory plus the declared module path.
func FindModuleRoot(dir string) (root, modulePath string, err error) {
	dir, err = filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for {
		gm := filepath.Join(dir, "go.mod")
		if data, err := os.ReadFile(gm); err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return dir, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("lint: %s has no module directive", gm)
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", "", fmt.Errorf("lint: no go.mod found above %s", dir)
		}
		dir = parent
	}
}
