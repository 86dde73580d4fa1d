package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// CtxFlow guards the engine's cancellation contract. Query lifecycle
// control — deadlines, cancellation, and the resource governor riding
// in the context — only works if every operator entry point actually
// threads its incoming context.Context downward. A parameter that is
// dropped (named _), never used, shadowed by a fresh context, or
// bypassed with context.Background()/TODO() silently detaches that
// subtree from the query's lifecycle: the query "supports"
// cancellation but a branch of its execution can no longer observe it.
// The analyzer inspects non-test files of internal/engine and
// internal/plan, where every context must descend from the query
// boundary. Its rules are syntactic: a function that only forwards its
// context to a callee that ignores it is reported at that callee,
// which never uses its own.
var CtxFlow = &Analyzer{
	Name: "ctxflow",
	Doc:  "flag engine/plan functions that drop, ignore, shadow, or bypass their incoming context.Context",
	Run:  runCtxFlow,
}

func runCtxFlow(pass *Pass) {
	if !pkgIs(pass.Pkg, "internal/engine") && !pkgIs(pass.Pkg, "internal/plan") {
		return
	}
	for _, file := range pass.Files {
		base := pass.Fset.Position(file.Pos()).Filename
		if strings.HasSuffix(base, "_test.go") {
			continue
		}
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkCtxFlow(pass, fd)
		}
	}
}

// isCtxType reports whether t is context.Context.
func isCtxType(t types.Type) bool {
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}

func checkCtxFlow(pass *Pass, fd *ast.FuncDecl) {
	// Locate the function's context.Context parameter, if any.
	var ctxParam *types.Var
	var ctxIdent *ast.Ident
	if fd.Type.Params != nil {
		for _, field := range fd.Type.Params.List {
			ft := pass.Info.TypeOf(field.Type)
			if ft == nil || !isCtxType(ft) {
				continue
			}
			if len(field.Names) == 0 {
				continue
			}
			for _, name := range field.Names {
				if name.Name == "_" {
					pass.Report(name.Pos(),
						"function %s discards its context.Context parameter (_); cancellation and budgets cannot flow into this subtree — name and thread it",
						fd.Name.Name)
					continue
				}
				ctxIdent = name
				ctxParam, _ = pass.Info.Defs[name].(*types.Var)
			}
			break
		}
	}
	if ctxParam == nil || ctxIdent == nil {
		return
	}

	// Count uses of the parameter and collect suspect constructs.
	uses := 0
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.Ident:
			if pass.Info.Uses[x] == ctxParam {
				uses++
			}
		case *ast.AssignStmt:
			// ctx := ... that shadows the parameter without deriving
			// from it detaches everything below the new binding.
			if x.Tok.String() != ":=" {
				return true
			}
			for i, lhs := range x.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok || id.Name != ctxIdent.Name {
					continue
				}
				if def, ok := pass.Info.Defs[id].(*types.Var); !ok || def == ctxParam {
					continue
				}
				if i < len(x.Rhs) && usesObj(pass.Info, x.Rhs[i], ctxParam) {
					continue // ctx := context.WithValue(ctx, ...) derives properly
				}
				if len(x.Rhs) == 1 && usesObj(pass.Info, x.Rhs[0], ctxParam) {
					continue // multi-assign from one call that threads ctx
				}
				pass.Report(id.Pos(),
					"function %s shadows its context parameter with a new %s not derived from it; the incoming deadline, cancellation, and governor are lost below this line",
					fd.Name.Name, ctxIdent.Name)
			}
		case *ast.CallExpr:
			// context.Background()/TODO() under a ctx-bearing function
			// manufactures a detached context.
			sel, ok := x.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			pkgID, ok := sel.X.(*ast.Ident)
			if !ok || pkgID.Name != "context" {
				return true
			}
			if sel.Sel.Name != "Background" && sel.Sel.Name != "TODO" {
				return true
			}
			if obj, ok := pass.Info.Uses[pkgID].(*types.PkgName); !ok || obj.Imported().Path() != "context" {
				return true
			}
			if rebindsParam(pass.Info, fd.Body, x, ctxParam) {
				return true // nil-guard idiom: ctx = context.Background()
			}
			pass.Report(x.Pos(),
				"function %s calls context.%s() despite receiving a context parameter; pass %s down instead of detaching this call tree from the query lifecycle",
				fd.Name.Name, sel.Sel.Name, ctxIdent.Name)
		}
		return true
	})
	if uses == 0 {
		pass.Report(ctxIdent.Pos(),
			"function %s never uses its context parameter %s; every engine/plan entry point must poll or forward it so cancellation reaches all operators",
			fd.Name.Name, ctxIdent.Name)
	}
}

// usesObj reports whether expr references obj anywhere.
func usesObj(info *types.Info, expr ast.Expr, obj *types.Var) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && info.Uses[id] == obj {
			found = true
		}
		return !found
	})
	return found
}

// rebindsParam reports whether call appears as the sole RHS of a plain
// assignment (`=`, not `:=`) whose LHS is the context parameter itself
// — the deliberate `if ctx == nil { ctx = context.Background() }`
// guard, which re-binds rather than detaches.
func rebindsParam(info *types.Info, body *ast.BlockStmt, call *ast.CallExpr, param *types.Var) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || as.Tok.String() != "=" || len(as.Rhs) != 1 || as.Rhs[0] != call {
			return !found
		}
		if len(as.Lhs) == 1 {
			if id, ok := as.Lhs[0].(*ast.Ident); ok && info.Uses[id] == param {
				found = true
			}
		}
		return !found
	})
	return found
}
