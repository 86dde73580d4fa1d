package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// RowAlias polices the shared-slice discipline of the engine:
// a value.Row (or []Row) is aliased, not copied, when it is sent on a
// channel, appended into another slice (an output chunk, a hash
// bucket), or stored into a struct or map. After any of those events
// the row may be retained by a hash table or an output relation, or
// read by another query, so writing one of its
// elements afterwards is a data race or a silent result corruption —
// the bug class `go test -race` only catches when the schedule
// cooperates. The analyzer flags, within one function, element writes
// to a row-typed variable that occur (textually) after the variable
// escaped.
//
// A second rule, scoped to the engine package, flags in-place writes
// to rows reached through shared storage (rel.Rows[i][j] = v, or a
// doubly-indexed parameter): operators receive their inputs by
// reference and must copy-on-write.
//
// A third rule polices the streaming batch contract: a Next method
// that writes elements of a receiver-field row slice it also returns
// is reusing its output buffer across calls, mutating batches the
// previous Next already handed to the consumer. Emitted batches are
// immutable after handoff — Next must allocate fresh batch storage.
var RowAlias = &Analyzer{
	Name: "rowalias",
	Doc:  "flag writes to value.Row elements after the row escaped (channel send, append, store, return)",
	Run:  runRowAlias,
}

// escapeKind labels how a row was shared, for the diagnostic.
type escapeEvent struct {
	pos  token.Pos
	kind string
}

func runRowAlias(pass *Pass) {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			runRowAliasFunc(pass, fd)
		}
	}
}

// rowIdents yields every identifier of row type in e, resolved to its
// variable object.
func rowIdents(info *types.Info, e ast.Expr, fn func(*types.Var, *ast.Ident)) {
	ast.Inspect(e, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		if obj := objOf(info, id); obj != nil && isRowType(obj.Type()) {
			fn(obj, id)
		}
		return true
	})
}

func runRowAliasFunc(pass *Pass, fd *ast.FuncDecl) {
	info := pass.Info

	// Rule 1 (flow-sensitive): escape facts flow along the function's
	// CFG; function literals are separate functions with their own
	// CFGs, analyzed independently.
	rowAliasEscapes(pass, fd.Body)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if fl, ok := n.(*ast.FuncLit); ok {
			rowAliasEscapes(pass, fl.Body)
		}
		return true
	})

	params := make(map[*types.Var]bool)
	if fd.Type.Params != nil {
		for _, f := range fd.Type.Params.List {
			for _, name := range f.Names {
				if obj, ok := info.Defs[name].(*types.Var); ok {
					params[obj] = true
				}
			}
		}
	}

	inEngine := pkgIs(pass.Pkg, "internal/engine")

	// Rule 2 (flow-insensitive): deep writes through shared storage in
	// the engine package.
	checkShared := func(target ast.Expr, pos token.Pos) {
		idx, ok := target.(*ast.IndexExpr)
		if !ok || !inEngine {
			return
		}
		if inner, ok := idx.X.(*ast.IndexExpr); ok {
			if t := info.Types[idx.X].Type; t != nil && namedFrom(t, "internal/value", "Row") {
				root := rootIdent(inner.X)
				viaSelector := false
				ast.Inspect(inner.X, func(n ast.Node) bool {
					if _, ok := n.(*ast.SelectorExpr); ok {
						viaSelector = true
					}
					return true
				})
				if root == nil || viaSelector || params[objOf(info, root)] {
					pass.Report(pos, "in-place write to a row reached through shared storage; operators must copy rows before mutating (copy-on-write)")
				}
			}
		}
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range x.Lhs {
				checkShared(lhs, lhs.Pos())
			}
		case *ast.IncDecStmt:
			checkShared(x.X, x.X.Pos())
		}
		return true
	})

	// Rule 3: Next reusing the receiver batch buffer it returns.
	if inEngine || pkgIs(pass.Pkg, "internal/plan") {
		checkNextBufferReuse(pass, fd)
	}
}

// rowAliasEscapes implements rule 1 on the CFG: a fact marks a row
// variable as escaped (sent, appended, stored, captured); assignment
// to the variable — including the per-iteration rebinding at a range
// head — kills the fact, since a fresh binding aliases nothing. An
// element write while a fact is live is flagged. Compared to the old
// textual-order rule this catches the loop-carried case (escape in
// one iteration, write in the next) and stops flagging writes on
// branches the escape cannot reach.
//
// `return r` is deliberately NOT an escape — a conditional early
// return followed by a write means the write runs only when the
// return did not. Mutation of rows handed to/from callers is rule 2's
// job.
func rowAliasEscapes(pass *Pass, body *ast.BlockStmt) {
	info := pass.Info
	cfg := pass.Dataflow().CFGFor(body)

	gen := func(st State, obj *types.Var, pos token.Pos, kind string) {
		k := FactKey{Obj: obj}
		if f, ok := st[k]; !ok || pos < f.Pos {
			st[k] = Fact{Pos: pos, Kind: kind}
		}
	}
	killPlain := func(st State, e ast.Expr) {
		if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
			if obj := objOf(info, id); obj != nil && isRowType(obj.Type()) {
				st.KillObj(obj)
			}
		}
	}
	transfer := func(n ast.Node, st State) {
		InspectNode(n, func(x ast.Node) bool {
			switch y := x.(type) {
			case *ast.SendStmt:
				rowIdents(info, y.Value, func(obj *types.Var, id *ast.Ident) {
					gen(st, obj, id.Pos(), "sent on a channel")
				})
			case *ast.CallExpr:
				if id, ok := y.Fun.(*ast.Ident); ok && id.Name == "append" && len(y.Args) > 1 {
					for _, arg := range y.Args[1:] {
						if aid, ok := arg.(*ast.Ident); ok {
							if obj := objOf(info, aid); obj != nil && isRowType(obj.Type()) {
								gen(st, obj, aid.Pos(), "appended to another slice")
							}
						}
					}
				}
			case *ast.CompositeLit:
				rowIdents(info, y, func(obj *types.Var, id *ast.Ident) {
					gen(st, obj, id.Pos(), "captured by a composite literal")
				})
			case *ast.AssignStmt:
				// Escapes: v stored into an element/field of something
				// else (X[i] = v, s.F = v, m[k] = v).
				for i, rhs := range y.Rhs {
					if i >= len(y.Lhs) {
						break
					}
					id, ok := rhs.(*ast.Ident)
					if !ok {
						continue
					}
					obj := objOf(info, id)
					if obj == nil || !isRowType(obj.Type()) {
						continue
					}
					switch lhs := y.Lhs[i].(type) {
					case *ast.IndexExpr:
						if root := rootIdent(lhs); root == nil || objOf(info, root) != obj {
							gen(st, obj, id.Pos(), "stored into another slice or map")
						}
					case *ast.SelectorExpr:
						gen(st, obj, id.Pos(), "stored into a struct field")
					}
				}
				// Kills: a plain rebinding points the name at fresh
				// storage.
				for _, lhs := range y.Lhs {
					killPlain(st, lhs)
				}
			case *ast.RangeStmt:
				// Loop-head node: Key/Value are rebound every iteration.
				if y.Key != nil {
					killPlain(st, y.Key)
				}
				if y.Value != nil {
					killPlain(st, y.Value)
				}
			}
			return true
		})
	}

	in := cfg.Solve(transfer)
	check := func(st State, target ast.Expr, pos token.Pos) {
		idx, ok := target.(*ast.IndexExpr)
		if !ok {
			return
		}
		root := rootIdent(idx)
		if root == nil {
			return
		}
		obj := objOf(info, root)
		if obj == nil || !isRowType(obj.Type()) {
			return
		}
		if ev, ok := st[FactKey{Obj: obj}]; ok {
			pass.Report(pos, "write to element of %s after it was %s at line %d; the row is aliased by the consumer — make a fresh copy instead",
				obj.Name(), ev.Kind, pass.Fset.Position(ev.Pos).Line)
		}
	}
	for _, blk := range cfg.Blocks {
		st := in[blk.Index].Clone()
		for _, n := range blk.Nodes {
			InspectNode(n, func(x ast.Node) bool {
				switch y := x.(type) {
				case *ast.AssignStmt:
					for _, lhs := range y.Lhs {
						check(st, lhs, lhs.Pos())
					}
				case *ast.IncDecStmt:
					check(st, y.X, y.X.Pos())
				}
				return true
			})
			transfer(n, st)
		}
	}
}

// checkNextBufferReuse flags a Next method that both writes elements
// of a receiver-field row slice and returns that same field: the
// previous call's emitted batch aliases the buffer, so the write
// corrupts rows the consumer already owns.
func checkNextBufferReuse(pass *Pass, fd *ast.FuncDecl) {
	if fd.Name.Name != "Next" {
		return
	}
	recv := receiverObj(pass.Info, fd)
	if recv == nil {
		return
	}
	info := pass.Info
	// recvField resolves expr as `recv.F` with F a row-typed slice and
	// returns F's name, or "".
	recvField := func(e ast.Expr) string {
		sel, ok := e.(*ast.SelectorExpr)
		if !ok {
			return ""
		}
		id, ok := sel.X.(*ast.Ident)
		if !ok || objOf(info, id) != recv {
			return ""
		}
		if t := info.Types[e].Type; t == nil || !isRowType(t) {
			return ""
		}
		if _, isSlice := info.Types[e].Type.Underlying().(*types.Slice); !isSlice {
			return ""
		}
		return sel.Sel.Name
	}

	returned := make(map[string]bool)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		for _, r := range ret.Results {
			if f := recvField(r); f != "" {
				returned[f] = true
			}
		}
		return true
	})
	if len(returned) == 0 {
		return
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for _, lhs := range as.Lhs {
			idx, ok := lhs.(*ast.IndexExpr)
			if !ok {
				continue
			}
			if f := recvField(idx.X); f != "" && returned[f] {
				pass.Report(lhs.Pos(),
					"Next reuses the receiver batch buffer %s it also returns; the previous batch is already owned by the consumer — allocate fresh batch storage per call",
					f)
			}
		}
		return true
	})
}
