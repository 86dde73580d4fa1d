package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// scratchResetters are the non-test files of the module that may call
// (*engine.Scratch).Reset. Reset hands an execution's rows back for the
// next execution to overwrite, so only the code that owns the answer may
// call it, once the answer has been consumed: DB.execute after its
// consumer returns (value.BoxRows copying the rows out for
// QueryWithContext, or the daemon's session encoding them into its
// frame through QueryFunc), ExplainWith, which keeps no row, and a
// filter's subquery runs (internal/plan/tree.go), each answering values
// copied out before its own scratch is reset. A new
// entry is a decision to review, not a formality.
var scratchResetters = map[string]bool{
	"uniqopt.go":            true,
	"internal/plan/tree.go": true,
}

func TestScratchResetOnlyByTheAnswersOwner(t *testing.T) {
	seen := map[string]bool{}
	engineUses(t, func(mod, file string, pos token.Position, obj types.Object) {
		fn, ok := obj.(*types.Func)
		if !ok || fn.FullName() != "(*"+mod+"/internal/engine.Scratch).Reset" {
			return
		}
		seen[file] = true
		if !scratchResetters[file] {
			t.Errorf("%s: %s resets a Scratch; only %v may — the rows it backs are the answer until copied out",
				pos, file, keys(scratchResetters))
		}
	})
	for file := range scratchResetters {
		if !seen[file] {
			t.Errorf("scratchResetters lists %s, which no longer resets a Scratch: drop the entry", file)
		}
	}
}

// engineUses type-checks the non-test files of the engine package and of
// every package of the module that imports it, and calls use for each
// identifier that names an object: with the module path, the file the
// identifier is in (relative to the module root) and its position.
func engineUses(t *testing.T, use func(mod, file string, pos token.Position, obj types.Object)) {
	t.Helper()
	const enginePath = "internal/engine"
	moduleUses(t, func(mod, dir string, _ *token.FileSet, files []*ast.File) bool {
		// Only the engine and the packages importing it can name its objects.
		return dir == enginePath || importsPath(files, mod+"/"+enginePath)
	}, use)
}

// moduleUses hands the non-test files of every package of the module to
// check, with the package's directory relative to the module root; it
// type-checks each package check accepts and calls use for each
// identifier there that names an object. The module is walked and
// parsed once per test binary, and each package type-checked at most
// once, by one Loader whose imported packages every check shares.
func moduleUses(t *testing.T, check func(mod, dir string, fset *token.FileSet, files []*ast.File) bool,
	use func(mod, file string, pos token.Position, obj types.Object)) {
	t.Helper()
	module.Lock()
	defer module.Unlock()
	module.once.Do(loadModule)
	if module.err != nil {
		t.Fatal(module.err)
	}
	mod, loader := module.mod, module.loader
	for _, p := range module.pkgs {
		if !check(mod, p.dir, loader.Fset, p.files) {
			continue
		}
		if p.info == nil {
			importPath := mod
			if p.dir != "." {
				importPath += "/" + p.dir
			}
			var err error
			if _, p.info, err = loader.Check(importPath, p.files); err != nil {
				t.Fatal(err)
			}
		}
		for id, obj := range p.info.Uses {
			pos := loader.Fset.Position(id.Pos())
			file, err := filepath.Rel(module.root, pos.Filename)
			if err != nil {
				t.Fatal(err)
			}
			use(mod, filepath.ToSlash(file), pos, obj)
		}
	}
}

// module is what moduleUses reads: the module's packages, parsed once.
var module struct {
	sync.Mutex
	once      sync.Once
	err       error
	root, mod string
	loader    *Loader
	pkgs      []*modulePkg // in the order a walk of the module visits them
}

// modulePkg is one package of the module: its non-test files and, once
// a test has asked for it, their type information.
type modulePkg struct {
	dir   string
	files []*ast.File
	info  *types.Info
}

// loadModule walks the module from its root, skipping testdata, hidden
// directories and nested modules (benchmark/), and parses the non-test
// files of every package into module.
func loadModule() {
	root, mod, err := FindModuleRoot(".")
	if err != nil {
		module.err = err
		return
	}
	module.root, module.mod = root, mod
	module.loader = NewLoader(token.NewFileSet(), mod, root, "")
	module.err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		name := d.Name()
		if path != root && (name == "testdata" || strings.HasPrefix(name, ".")) {
			return filepath.SkipDir
		}
		if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil && path != root {
			return filepath.SkipDir // a module of its own (benchmark/)
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		files, _, _, err := module.loader.ParseDir(path)
		if err != nil || len(files) == 0 {
			return err
		}
		module.pkgs = append(module.pkgs, &modulePkg{dir: filepath.ToSlash(rel), files: files})
		return nil
	})
}

// importsPath reports whether any of files imports path.
func importsPath(files []*ast.File, path string) bool {
	for _, f := range files {
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == path {
				return true
			}
		}
	}
	return false
}

func keys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
