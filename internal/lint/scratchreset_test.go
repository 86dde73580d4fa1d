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
// next execution to overwrite, so only the code that copied the answer
// out of them may call it: DB.QueryWithContext after value.BoxRows, and
// ExplainWith, which keeps no row. A new entry is a decision to review,
// not a formality.
var scratchResetters = map[string]bool{
	"uniqopt.go": true,
}

func TestScratchResetOnlyByTheAnswersOwner(t *testing.T) {
	root, mod, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	const enginePath = "internal/engine"
	reset := "(*" + mod + "/" + enginePath + ".Scratch).Reset"
	loader := NewLoader(token.NewFileSet(), mod, root, "")
	seen := map[string]bool{}
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
		// Only the engine and the packages importing it can name a Scratch.
		if rel != enginePath && !importsPath(files, mod+"/"+enginePath) {
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
			fn, ok := obj.(*types.Func)
			if !ok || fn.FullName() != reset {
				continue
			}
			file, err := filepath.Rel(root, loader.Fset.Position(id.Pos()).Filename)
			if err != nil {
				return err
			}
			file = filepath.ToSlash(file)
			seen[file] = true
			if !scratchResetters[file] {
				t.Errorf("%s: %s resets a Scratch; only %v may — the rows it backs are the answer until copied out",
					loader.Fset.Position(id.Pos()), file, keys(scratchResetters))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for file := range scratchResetters {
		if !seen[file] {
			t.Errorf("scratchResetters lists %s, which no longer resets a Scratch: drop the entry", file)
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
