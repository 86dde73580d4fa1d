package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// unsafeAllowed are the non-test files of the module that may import
// unsafe, each with the selectors it may use (nil: any). The value
// package hides the cell's layout behind its accessors; the engine only
// sizes a cell. A new entry is a decision to review, not a formality.
var unsafeAllowed = map[string][]string{
	"internal/value/value.go":      nil,
	"internal/engine/lifecycle.go": {"Sizeof"},
}

func TestUnsafeImportsAreAllowlisted(t *testing.T) {
	root, _, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil && path != root {
				return filepath.SkipDir // a module of its own (benchmark/)
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		local := ""
		for _, imp := range file.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == "unsafe" {
				local = "unsafe"
				if imp.Name != nil {
					local = imp.Name.Name
				}
			}
		}
		if local == "" {
			return nil
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		selectors, ok := unsafeAllowed[rel]
		if !ok {
			t.Errorf("%s imports unsafe and is not in unsafeAllowed", rel)
			return nil
		}
		seen[rel] = true
		if selectors == nil {
			return nil
		}
		ast.Inspect(file, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if x, ok := sel.X.(*ast.Ident); ok && x.Name == local && !slices.Contains(selectors, sel.Sel.Name) {
				t.Errorf("%s uses unsafe.%s; it is allowed only %v", rel, sel.Sel.Name, selectors)
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for rel := range unsafeAllowed {
		if !seen[rel] {
			t.Errorf("unsafeAllowed lists %s, which no longer imports unsafe: drop the entry", rel)
		}
	}
}
