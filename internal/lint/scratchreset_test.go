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
	"testing"
)

// scratchResetters are the non-test files of the module that may call
// (*engine.Scratch).Reset. Reset hands an execution's rows back for the
// next execution to overwrite, so only the code that owns the answer may
// call it, once the answer has been consumed: DB.execute after its
// consumer returns (value.BoxRows copying the rows out for
// QueryWithContext, or the daemon's session encoding them into its
// frame through QueryFunc), ExplainWith, which keeps no row, and a
// filter's subquery runs (internal/plan/tree.go), each answering a truth
// value or values copied out before its own scratch is reset. A new
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

// moduleUses parses the non-test files of every package of the module
// and hands them to check, with the package's directory relative to the
// module root; it type-checks each package check accepts and calls use
// for each identifier there that names an object.
func moduleUses(t *testing.T, check func(mod, dir string, fset *token.FileSet, files []*ast.File) bool,
	use func(mod, file string, pos token.Position, obj types.Object)) {
	t.Helper()
	root, mod, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	loader := NewLoader(token.NewFileSet(), mod, root, "")
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
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
		rel = filepath.ToSlash(rel)
		files, _, _, err := loader.ParseDir(path)
		if err != nil || len(files) == 0 {
			return err
		}
		if !check(mod, rel, loader.Fset, files) {
			return nil
		}
		importPath := mod
		if rel != "." {
			importPath += "/" + rel
		}
		_, info, err := loader.Check(importPath, files)
		if err != nil {
			return err
		}
		for id, obj := range info.Uses {
			pos := loader.Fset.Position(id.Pos())
			file, err := filepath.Rel(root, pos.Filename)
			if err != nil {
				return err
			}
			use(mod, filepath.ToSlash(file), pos, obj)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
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
