package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
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
