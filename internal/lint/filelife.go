package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"
)

// FileLife polices the storage layer's file-descriptor and durability
// hygiene, which no test sees fail: a leaked *os.File is closed by its
// finalizer at the next collection, so the crash matrix's descriptor
// count misses it, and a missing fsync loses nothing until the power
// does.
//
//  1. Every *os.File opened in internal/storage/... is closed, or its
//     ownership handed off, before any success return. A deferred
//     Close, a Close inside a function literal (a cleanup closure), and
//     a handoff — the file returned, assigned, put in a composite
//     literal or sent — discharge the obligation for the whole
//     function. Otherwise each success return after the open needs a
//     Close on its statement path before it, or in its own results.
//
//  2. In internal/storage/wal, a raw (*os.File) write — one that
//     bypasses the buffered writer — is followed on its statement path
//     by a (*os.File).Sync before any success return, unless a deferred
//     Sync covers every path. Buffered appends defer durability to the
//     group-commit barrier; bytes written straight to the descriptor are
//     promised durable the moment the function returns success.
//
// The rules are syntactic. A statement path is a statement's own list
// and, when that list runs off its end, the enclosing lists. A Close or
// Sync must be spelled in the function that owns the obligation: a
// helper is not looked into. A failure return — a final result of error
// type that is neither nil nor a call into the package itself, which
// might succeed — is exempt from both rules: it precedes the open's use
// or refuses the write.
var FileLife = &Analyzer{
	Name: "filelife",
	Doc:  "flag storage files not closed before a success return and raw WAL file writes that can reach a success return without an fsync",
	Run:  runFileLife,
}

// rawWriteMethods are the (*os.File) methods that write caller bytes
// to the descriptor directly; fileOpenFuncs the package-os constructors
// whose *os.File result the caller owns.
var rawWriteMethods = []string{"Write", "WriteString", "WriteAt", "ReadFrom"}
var fileOpenFuncs = map[string]bool{"Open": true, "OpenFile": true, "Create": true, "CreateTemp": true}

func runFileLife(pass *Pass) {
	if !pkgUnder(pass.Pkg, "internal/storage") {
		return
	}
	inWal := pkgIs(pass.Pkg, "internal/storage/wal")
	for _, file := range pass.Files {
		if strings.HasSuffix(pass.Fset.Position(file.Pos()).Filename, "_test.go") {
			continue
		}
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				fl := &fileFunc{pass: pass, body: fd.Body}
				walkStmtLists(fd.Body.List, nil, fl.visit)
				fl.checkOpens()
				if inWal {
					fl.checkWrites()
				}
			}
		}
	}
}

// pkgUnder reports whether pkg is the repository package with the
// given import-path suffix or any package below it.
func pkgUnder(pkg *types.Package, suffix string) bool {
	if pkg == nil {
		return false
	}
	p := pkg.Path()
	return p == suffix || strings.HasSuffix(p, "/"+suffix) ||
		strings.Contains(p, "/"+suffix+"/") || strings.HasPrefix(p, suffix+"/")
}

// pathPos is one step of a statement's path: the list it sits in and
// its index there. A path runs from the function body inwards.
type pathPos struct {
	list []ast.Stmt
	i    int
}

// walkStmtLists calls visit for every statement of list and of the
// lists nested in it, with the path that leads to it. Function
// literals are not entered: their bodies are other functions.
func walkStmtLists(list []ast.Stmt, path []pathPos, visit func(ast.Stmt, []pathPos)) {
	for i, s := range list {
		here := append(path[:len(path):len(path)], pathPos{list, i})
		visit(s, here)
		for _, sub := range childLists(s) {
			walkStmtLists(sub, here, visit)
		}
	}
}

// childLists returns the statement lists directly inside s.
func childLists(s ast.Stmt) (out [][]ast.Stmt) {
	switch x := s.(type) {
	case *ast.BlockStmt:
		return [][]ast.Stmt{x.List}
	case *ast.LabeledStmt:
		return [][]ast.Stmt{{x.Stmt}}
	case *ast.ForStmt:
		return [][]ast.Stmt{x.Body.List}
	case *ast.RangeStmt:
		return [][]ast.Stmt{x.Body.List}
	case *ast.IfStmt:
		if out = [][]ast.Stmt{x.Body.List}; x.Else != nil {
			out = append(out, []ast.Stmt{x.Else})
		}
	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		inspectStmt(s, func(n ast.Node) bool {
			switch c := n.(type) {
			case *ast.CaseClause:
				out = append(out, c.Body)
			case *ast.CommClause:
				out = append(out, c.Body)
			default:
				return true
			}
			return false
		})
	}
	return out
}

// inspectStmt is ast.Inspect without entering function literals.
func inspectStmt(n ast.Node, fn func(ast.Node) bool) {
	ast.Inspect(n, func(m ast.Node) bool {
		_, lit := m.(*ast.FuncLit)
		return !lit && fn(m)
	})
}

// fileFunc is one function under the two rules: its opens, returns
// and raw writes, each with its statement path.
type fileFunc struct {
	pass    *Pass
	body    *ast.BlockStmt
	opens   []*ast.Ident
	returns []located
	writes  []located
}

type located struct {
	node ast.Node
	path []pathPos
}

func (fl *fileFunc) visit(s ast.Stmt, path []pathPos) {
	info := fl.pass.Info
	switch x := s.(type) {
	case *ast.ReturnStmt:
		fl.returns = append(fl.returns, located{x, path})
	case *ast.AssignStmt:
		if call, ok := x.Rhs[0].(*ast.CallExpr); ok && isFileOpenCall(info, call) {
			if id, ok := x.Lhs[0].(*ast.Ident); ok {
				if obj := objOf(info, id); obj != nil && isOSFileType(obj.Type()) {
					fl.opens = append(fl.opens, id)
				}
			}
		}
	case *ast.IfStmt:
		s = x.Init // the branches are lists of their own
	}
	if s == nil || len(childLists(s)) > 0 {
		return
	}
	inspectStmt(s, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && isOSFileMethod(info, call, rawWriteMethods...) {
			fl.writes = append(fl.writes, located{call, path})
		}
		return true
	})
}

// checkOpens applies rule 1.
func (fl *fileFunc) checkOpens() {
	for _, id := range fl.opens {
		obj := objOf(fl.pass.Info, id)
		if fl.discharged(obj) {
			continue
		}
		closes := func(n ast.Node) bool { return fl.calls(n, obj, "Close") }
		for _, r := range fl.returns {
			if r.node.Pos() > id.Pos() && !fl.isFailureReturn(r.node.(*ast.ReturnStmt)) &&
				!closes(r.node) && !before(r.path, id.Pos(), closes) {
				fl.pass.Report(id.Pos(),
					"file %s opened here can reach a success return without being closed; close it on every path (or defer %s.Close(), or hand ownership off) — a leaked descriptor outlives the crash matrix's count until the collector finds it",
					id.Name, id.Name)
				break
			}
		}
	}
}

// checkWrites applies rule 2.
func (fl *fileFunc) checkWrites() {
	deferred := false
	inspectStmt(fl.body, func(n ast.Node) bool {
		if d, ok := n.(*ast.DeferStmt); ok && fl.calls(d, nil, "Sync") {
			deferred = true
		}
		return true
	})
	for _, w := range fl.writes {
		if !deferred && !fl.syncedAfter(w.path) {
			fl.pass.Report(w.node.Pos(),
				"raw *os.File write can reach a success return without an fsync; bytes written past the buffer are promised durable when this function returns success — Sync before returning")
		}
	}
}

// syncedAfter follows a statement path forwards — the rest of its own
// list, then of each enclosing list — until a Sync or a return.
func (fl *fileFunc) syncedAfter(path []pathPos) bool {
	for k := len(path) - 1; k >= 0; k-- {
		for _, s := range path[k].list[path[k].i+1:] {
			if fl.calls(s, nil, "Sync") {
				return true
			}
			if r, ok := s.(*ast.ReturnStmt); ok {
				return fl.isFailureReturn(r)
			}
		}
	}
	return false
}

// before reports whether a statement ahead of the end of path — in its
// own list or in an enclosing one — begins after from and satisfies ok.
func before(path []pathPos, from token.Pos, ok func(ast.Node) bool) bool {
	for _, p := range path {
		for _, s := range p.list[:p.i] {
			if s.Pos() > from && ok(s) {
				return true
			}
		}
	}
	return false
}

// discharged reports whether the function closes obj for good — a
// deferred Close, a Close in a cleanup closure — or hands it off.
func (fl *fileFunc) discharged(obj *types.Var) bool {
	uses := func(es ...ast.Expr) bool {
		for _, e := range es {
			if kv, ok := e.(*ast.KeyValueExpr); ok {
				e = kv.Value
			}
			if id, ok := ast.Unparen(e).(*ast.Ident); ok && objOf(fl.pass.Info, id) == obj {
				return true
			}
		}
		return false
	}
	found := false
	ast.Inspect(fl.body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch x := n.(type) {
		case *ast.DeferStmt:
			found = fl.calls(x, obj, "Close")
		case *ast.FuncLit:
			found = fl.calls(x.Body, obj, "Close")
		case *ast.ReturnStmt:
			found = uses(x.Results...)
		case *ast.AssignStmt:
			found = x.Tok == token.ASSIGN && uses(x.Rhs...)
		case *ast.CompositeLit:
			found = uses(x.Elts...)
		case *ast.SendStmt:
			found = uses(x.Value)
		}
		return true
	})
	return found
}

// calls reports whether n calls method name on obj — or, with obj nil,
// on any *os.File.
func (fl *fileFunc) calls(n ast.Node, obj *types.Var, name string) bool {
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		if call, ok := m.(*ast.CallExpr); ok && !found && isOSFileMethod(fl.pass.Info, call, name) {
			id, ok := ast.Unparen(call.Fun.(*ast.SelectorExpr).X).(*ast.Ident)
			found = obj == nil || ok && objOf(fl.pass.Info, id) == obj
		}
		return !found
	})
	return found
}

// isFailureReturn reports whether ret's final result is of error type
// and neither nil nor a call to a function of the package itself.
func (fl *fileFunc) isFailureReturn(ret *ast.ReturnStmt) bool {
	if len(ret.Results) == 0 {
		return false
	}
	last := ast.Unparen(ret.Results[len(ret.Results)-1])
	if id, ok := last.(*ast.Ident); ok && id.Name == "nil" {
		return false
	}
	if call, ok := last.(*ast.CallExpr); ok {
		fun := ast.Unparen(call.Fun)
		if sel, ok := fun.(*ast.SelectorExpr); ok {
			fun = sel.Sel
		}
		if id, ok := fun.(*ast.Ident); ok {
			if fn, ok := fl.pass.Info.Uses[id].(*types.Func); ok && fn.Pkg() == fl.pass.Pkg {
				return false
			}
		}
	}
	t := fl.pass.Info.TypeOf(last)
	return t != nil && types.Identical(t, types.Universe.Lookup("error").Type())
}

// isOSFileType reports whether t (after pointer indirection) is the
// standard library's os.File.
func isOSFileType(t types.Type) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	n, ok := t.(*types.Named)
	return ok && n.Obj().Name() == "File" && n.Obj().Pkg() != nil && n.Obj().Pkg().Path() == "os"
}

// isOSFileMethod reports whether call invokes one of the named methods
// on an *os.File receiver.
func isOSFileMethod(info *types.Info, call *ast.CallExpr, names ...string) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	s, ok := info.Selections[sel]
	return ok && isOSFileType(s.Recv()) && slices.Contains(names, sel.Sel.Name)
}

// isFileOpenCall reports whether call is os.Open / os.OpenFile /
// os.Create / os.CreateTemp.
func isFileOpenCall(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || !fileOpenFuncs[sel.Sel.Name] {
		return false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	return ok && fn.Pkg() != nil && fn.Pkg().Path() == "os"
}
