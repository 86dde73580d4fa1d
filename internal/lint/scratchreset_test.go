package lint

import (
	"go/ast"
	"go/token"
	"go/types"
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

// engineUses calls use for each identifier that names an object in the
// non-test files of the engine package and of every package of the
// module that imports it: with the module path, the file the identifier
// is in (relative to the module root) and its position.
func engineUses(t *testing.T, use func(mod, file string, pos token.Position, obj types.Object)) {
	t.Helper()
	const enginePath = "internal/engine"
	moduleUses(t, func(mod, dir string, files []*ast.File) bool {
		// Only the engine and the packages importing it can name its objects.
		return dir == enginePath || importsPath(files, mod+"/"+enginePath)
	}, use)
}

// moduleUses hands the non-test files of every package the full-repo
// lint run loaded (the module's, and benchmark/'s, which imports it) to
// check, with the package's directory relative to the module root, and
// calls use for each identifier that names an object in the packages
// check accepts. The files and their types are those that run checked,
// so no package is type-checked twice in a test binary.
func moduleUses(t *testing.T, check func(mod, dir string, files []*ast.File) bool,
	use func(mod, file string, pos token.Position, obj types.Object)) {
	t.Helper()
	r := lintRepo(t)
	paths := make([]string, 0, len(r.loader.units))
	for path := range r.loader.units {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for _, path := range paths {
		u := r.loader.units[path]
		dir, ok := strings.CutPrefix(path, r.Module+"/")
		if path == r.Module {
			dir, ok = ".", true
		}
		if !ok || len(u.Files) == 0 || !check(r.Module, dir, u.Files) {
			continue
		}
		for id, obj := range u.Info.Uses {
			pos := fset.Position(id.Pos())
			file, err := filepath.Rel(r.Root, pos.Filename)
			if err != nil {
				t.Fatal(err)
			}
			use(r.Module, filepath.ToSlash(file), pos, obj)
		}
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
