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
// keys a value by name — map[string]value.Value — or names eval.Env.
var bindingPaths = []string{".", "internal/plan", "internal/engine"}

// TestProductBindsParametersBySlot fails when non-test code of a
// bindingPaths package spells map[string]value.Value or names eval.Env,
// through a pointer or not.
func TestProductBindsParametersBySlot(t *testing.T) {
	found := map[string]bool{}
	moduleUses(t, func(mod, dir string, fset *token.FileSet, files []*ast.File) bool {
		if !slices.Contains(bindingPaths, dir) {
			return false
		}
		found[dir] = true
		for _, f := range files {
			evalName, valueName := importName(f, mod+"/internal/eval"), importName(f, mod+"/internal/value")
			ast.Inspect(f, func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.MapType:
					if k, ok := x.Key.(*ast.Ident); ok && k.Name == "string" && isSelector(x.Value, valueName, "Value") {
						t.Errorf("%s: map[string]value.Value keys a value by name; bind it by its slot of the binding vector",
							fset.Position(x.Pos()))
					}
				case *ast.SelectorExpr:
					if isSelector(x, evalName, "Env") {
						t.Errorf("%s: names eval.Env, the oracle's name-keyed environment; arm a clause from the binding vector instead",
							fset.Position(x.Pos()))
					}
				}
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

// TestOnlyTheOracleRunsTruth fails when non-test code outside the
// oracle names eval.Truth, except eval.go, which defines it. The product
// runs every clause as one prepared program (eval.Prepare, then Arm); a
// second evaluator on its path would share its 3VL logic with the
// oracle, and the differential tests could not see a mistake in it.
func TestOnlyTheOracleRunsTruth(t *testing.T) {
	named := false
	moduleUses(t, func(mod, dir string, _ *token.FileSet, files []*ast.File) bool {
		return dir == "internal/eval" || importsPath(files, mod+"/internal/eval")
	}, func(mod, file string, pos token.Position, obj types.Object) {
		if fn, ok := obj.(*types.Func); !ok || fn.FullName() != mod+"/internal/eval.Truth" {
			return
		}
		named = true
		if !strings.HasPrefix(file, oraclePath+"/") && file != "internal/eval/eval.go" {
			t.Errorf("%s: names eval.Truth; only the oracle walks a clause — prepare and arm it (eval.Prepare) instead", pos)
		}
	})
	if !named {
		t.Error("nothing names eval.Truth: the check has lost its target")
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
