package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// TvlBool enforces the three-valued-logic discipline around
// internal/tvl: outside the tvl package itself, code must not compare
// a tvl.Truth against the tvl.True/False/Unknown constants with == or
// !=, nor convert a Truth to a two-valued or numeric type. Both forms
// silently collapse SQL's 3VL to 2VL — the exact bug class Paulley &
// Larson's Theorem 1 (and the WHERE-clause false-interpretation ⌊P⌋)
// exists to avoid: Unknown must be handled explicitly, via
// tvl.IsTrue, tvl.IsFalse, tvl.IsUnknown, tvl.TrueInterpreted or
// tvl.FalseInterpreted.
//
// Every such collapse tried so far is also seen by a test, so this
// analyzer has no surviving mutant left: planted in the filter's row
// loop, in a CHECK or in the OR kernel it fails tier-1 at once, and
// planted in the index join's residual check (indexJoinIter.Next in
// internal/engine/stream.go, !tvl.FalseInterpreted(t) written as
// t == tvl.False, so a residual that is Unknown keeps its row) it fails
// TestIndexJoinResidualOnSmallInstances.
var TvlBool = &Analyzer{
	Name: "tvlbool",
	Doc:  "flag ==/!= of tvl.Truth against tvl constants and Truth→scalar conversions outside package tvl",
	Run:  runTvlBool,
}

func isTruth(t types.Type) bool { return namedFrom(t, "internal/tvl", "Truth") }

// truthConst reports whether e denotes one of the exported Truth
// constants (tvl.True, tvl.False, tvl.Unknown).
func truthConst(info *types.Info, e ast.Expr) (string, bool) {
	var id *ast.Ident
	switch x := e.(type) {
	case *ast.Ident:
		id = x
	case *ast.SelectorExpr:
		id = x.Sel
	default:
		return "", false
	}
	c, ok := info.Uses[id].(*types.Const)
	if !ok || !isTruth(c.Type()) {
		return "", false
	}
	switch c.Name() {
	case "True", "False", "Unknown":
		return c.Name(), true
	}
	return "", false
}

// helperFor names the tvl helper that replaces a comparison against
// the given constant.
func helperFor(constName string, op token.Token) string {
	h := map[string]string{"True": "tvl.IsTrue", "False": "tvl.IsFalse", "Unknown": "tvl.IsUnknown"}[constName]
	if op == token.NEQ {
		return "!" + h
	}
	return h
}

func runTvlBool(pass *Pass) {
	if pkgIs(pass.Pkg, "internal/tvl") {
		return // the implementation package defines the helpers
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.BinaryExpr:
				if x.Op != token.EQL && x.Op != token.NEQ {
					return true
				}
				lt := pass.Info.Types[x.X].Type
				rt := pass.Info.Types[x.Y].Type
				if !isTruth(lt) && !isTruth(rt) {
					return true
				}
				name, ok := truthConst(pass.Info, x.X)
				if !ok {
					name, ok = truthConst(pass.Info, x.Y)
				}
				if !ok {
					return true
				}
				pass.Report(x.OpPos,
					"comparing tvl.Truth against tvl.%s with %s collapses 3VL to 2VL; use %s(...) so Unknown is handled explicitly",
					name, x.Op, helperFor(name, x.Op))
			case *ast.CallExpr:
				// Type conversion T(v) where v is a Truth and T is a
				// basic (bool/numeric/string) type.
				if len(x.Args) != 1 {
					return true
				}
				tv, ok := pass.Info.Types[x.Fun]
				if !ok || !tv.IsType() {
					return true
				}
				if !isTruth(pass.Info.Types[x.Args[0]].Type) {
					return true
				}
				if basic, ok := tv.Type.Underlying().(*types.Basic); ok && basic.Kind() != types.Invalid && !isTruth(tv.Type) {
					pass.Report(x.Lparen,
						"converting tvl.Truth to %s discards three-valued semantics; use the tvl interpretation helpers instead",
						tv.Type.String())
				}
			}
			return true
		})
	}
}
