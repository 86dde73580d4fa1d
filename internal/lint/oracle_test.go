package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// oraclePath is the definitional evaluator the differential tests hold
// the product to.
const oraclePath = "internal/oracle"

// oracleEval is all the oracle may name of the eval package: 3VL truth
// over a name→value environment, and the environment's callback types.
// The prepared kernels (Prepare, Compile, Filter, …) are what the
// product runs, and an oracle that ran them could not see their bugs.
var oracleEval = map[string]bool{"Truth": true, "Env": true, "ExistsFunc": true, "InFunc": true}

// TestOracleIsIndependentAndTestOnly pins both directions of the
// oracle's isolation: no non-test file outside internal/oracle imports
// it, and it imports neither the engine nor the planner and names
// nothing of eval but oracleEval.
func TestOracleIsIndependentAndTestOnly(t *testing.T) {
	found := false
	moduleUses(t, func(mod, dir string, fset *token.FileSet, files []*ast.File) bool {
		for _, f := range files {
			for _, imp := range f.Imports {
				p, _ := strconv.Unquote(imp.Path.Value)
				switch {
				case dir != oraclePath && p == mod+"/"+oraclePath:
					t.Errorf("%s: imports %s; the oracle is for tests, not a product path",
						fset.Position(imp.Pos()), p)
				case dir == oraclePath && (p == mod+"/internal/engine" || p == mod+"/internal/plan"):
					t.Errorf("%s: the oracle imports %s; it must share no code with the product's execution",
						fset.Position(imp.Pos()), p)
				}
			}
		}
		found = found || dir == oraclePath
		return dir == oraclePath
	}, func(mod, file string, pos token.Position, obj types.Object) {
		pkg := obj.Pkg()
		if pkg == nil || pkg.Path() != mod+"/internal/eval" || obj.Parent() != pkg.Scope() {
			return // not a package-level name of eval: a field of Env is part of Env
		}
		if !oracleEval[obj.Name()] {
			t.Errorf("%s: the oracle names eval.%s; it may name only %v", pos, obj.Name(), keys(oracleEval))
		}
	})
	if !found {
		t.Errorf("no package at %s", oraclePath)
	}
}

// bindingPaths are the packages whose non-test code runs an execution:
// they bind every parameter by its slot of the binding vector, so none
// keys a value by name — map[string]value.Value — or builds an eval.Env.
// The one name-keyed environment left on the product path is the one
// eval's interpreted walk over a surviving EXISTS or IN builds for
// itself; plan reads it, through a *eval.Env, when a subquery runs.
var bindingPaths = []string{".", "internal/plan", "internal/engine"}

// TestProductBindsParametersBySlot fails when non-test code of a
// bindingPaths package spells map[string]value.Value or uses eval.Env
// other than through a pointer — a composite literal, new(eval.Env), or
// a variable, field or parameter of the struct type itself — and when
// the engine names eval.Env at all.
func TestProductBindsParametersBySlot(t *testing.T) {
	found := map[string]bool{}
	moduleUses(t, func(mod, dir string, fset *token.FileSet, files []*ast.File) bool {
		if !slices.Contains(bindingPaths, dir) {
			return false
		}
		found[dir] = true
		for _, f := range files {
			evalName, valueName := importName(f, mod+"/internal/eval"), importName(f, mod+"/internal/value")
			var stack []ast.Node
			ast.Inspect(f, func(n ast.Node) bool {
				if n == nil {
					stack = stack[:len(stack)-1]
					return false
				}
				switch x := n.(type) {
				case *ast.MapType:
					if k, ok := x.Key.(*ast.Ident); ok && k.Name == "string" && isSelector(x.Value, valueName, "Value") {
						t.Errorf("%s: map[string]value.Value keys a value by name; bind it by its slot of the binding vector",
							fset.Position(x.Pos()))
					}
				case *ast.SelectorExpr:
					if !isSelector(x, evalName, "Env") {
						break
					}
					if _, ptr := stack[len(stack)-1].(*ast.StarExpr); !ptr {
						t.Errorf("%s: builds an eval.Env; arm a clause from the binding vector instead",
							fset.Position(x.Pos()))
					} else if dir == "internal/engine" {
						t.Errorf("%s: an engine iterator takes an armed clause or the binding vector, not an *eval.Env",
							fset.Position(x.Pos()))
					}
				}
				stack = append(stack, n)
				return true
			})
		}
		return false
	}, nil)
	for _, dir := range bindingPaths {
		if !found[dir] {
			t.Errorf("no package at %s", dir)
		}
	}
}

// importName is the name f refers to the package at path by, or "" when
// f does not import it.
func importName(f *ast.File, path string) string {
	for _, imp := range f.Imports {
		if p, _ := strconv.Unquote(imp.Path.Value); p == path {
			if imp.Name != nil {
				return imp.Name.Name
			}
			return path[strings.LastIndexByte(path, '/')+1:]
		}
	}
	return ""
}

// isSelector reports whether e is pkg.name, pkg being an import's name.
func isSelector(e ast.Expr, pkg, name string) bool {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok || pkg == "" || sel.Sel.Name != name {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	return ok && id.Name == pkg
}
