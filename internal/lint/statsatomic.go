package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"
)

// StatsAtomic polices access to the engine.Stats work counters. The
// documented concurrency contract (engine/stats.go) is: inside the
// engine's operator implementation an execution increments its own
// Stats directly; everyone else must use Add/AddCache to accumulate
// and Snapshot to read. The analyzer enforces the statically checkable
// faces of that contract:
//
//  1. Outside the engine implementation (any other package, and
//     engine's own test files), reading or writing a counter field
//     through a *Stats pointer is flagged — a pointer may be the live
//     shared accumulator, and non-atomic access races with concurrent
//     Add. Field access on a Stats *value* (a Snapshot() copy or a
//     local) is allowed everywhere: copies cannot race.
//
//  2. Inside the engine implementation, ad-hoc sync/atomic calls on
//     counter fields are allowed only in stats.go, which owns the
//     atomic API — keeping it centralized is what lets Stats.fields()
//     guarantee no counter is missed during merges.
var StatsAtomic = &Analyzer{
	Name: "statsatomic",
	Doc:  "flag direct engine.Stats counter access that bypasses the atomic Add/AddCache/Snapshot API",
	Run:  runStatsAtomic,
}

// statsCounter resolves sel to an int64 counter field of engine.Stats,
// returning the field name.
func statsCounter(info *types.Info, sel *ast.SelectorExpr) (string, bool) {
	s, ok := info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return "", false
	}
	if !namedFrom(s.Recv(), "internal/engine", "Stats") {
		return "", false
	}
	if basic, ok := s.Obj().Type().(*types.Basic); !ok || basic.Kind() != types.Int64 {
		return "", false
	}
	return s.Obj().Name(), true
}

// writeTargets collects every expression position that is assigned,
// incremented/decremented, or address-taken in the file.
func writeTargets(file *ast.File) map[ast.Expr]bool {
	w := make(map[ast.Expr]bool)
	ast.Inspect(file, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range x.Lhs {
				w[lhs] = true
			}
		case *ast.IncDecStmt:
			w[x.X] = true
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				w[x.X] = true
			}
		}
		return true
	})
	return w
}

// atomicPkgCall reports whether call invokes a function from
// sync/atomic.
func atomicPkgCall(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	pn, ok := info.Uses[id].(*types.PkgName)
	return ok && pn.Imported().Path() == "sync/atomic"
}

func runStatsAtomic(pass *Pass) {
	for _, file := range pass.Files {
		fname := pass.Fset.Position(file.Package).Filename
		base := filepath.Base(fname)
		inEngineImpl := pkgIs(pass.Pkg, "internal/engine") && !strings.HasSuffix(base, "_test.go")
		writes := writeTargets(file)

		ast.Inspect(file, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok && inEngineImpl && base != "stats.go" && atomicPkgCall(pass.Info, call) {
				for _, arg := range call.Args {
					e := arg
					if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.AND {
						e = u.X
					}
					if sel, ok := e.(*ast.SelectorExpr); ok {
						if name, ok := statsCounter(pass.Info, sel); ok {
							pass.Report(call.Pos(),
								"ad-hoc atomic access to Stats.%s outside stats.go; the atomic counter API (Add/AddCache/Snapshot) is centralized there so fields() cannot miss a counter", name)
							break
						}
					}
				}
				return true
			}
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			name, ok := statsCounter(pass.Info, sel)
			if !ok {
				return true
			}
			if inEngineImpl {
				return true // an execution's direct increments are the documented design
			}
			baseType := pass.Info.Types[sel.X].Type
			if baseType == nil {
				return true
			}
			if _, isPtr := baseType.Underlying().(*types.Pointer); !isPtr {
				return true // field of a Stats value: a copy, cannot race
			}
			if writes[sel] {
				pass.Report(sel.Sel.Pos(),
					"direct write to engine.Stats counter %s through a *Stats; accumulate via Stats.Add/AddCache (atomic on the destination)", name)
			} else {
				pass.Report(sel.Sel.Pos(),
					"direct read of engine.Stats counter %s through a *Stats may race with concurrent Add; read a Snapshot() copy", name)
			}
			return true
		})
	}
}
