package lint

import (
	"go/ast"
	"go/types"
)

// CatVer guards the versioned cache's invalidation contract. Every
// vcache.Cache entry — the analyzer's verdicts and the database's
// compiled statements alike — is keyed by the catalog schema version,
// so a schema mutation that does not bump the version leaves stale
// entries live — and a stale entry does not just waste time: a stale
// verdict licenses semantic rewrites (DISTINCT elimination, subquery
// flattening) that are only valid under the old dependency set, and a
// stale compiled statement runs them, joining in an order whose
// cardinality bounds no longer hold. The analyzer requires every
// exported method in internal/catalog that mutates its receiver to
// bump the version in its body: a call to Bump/bump/bumped, or a
// direct version.Add.
var CatVer = &Analyzer{
	Name: "catver",
	Doc:  "flag exported mutating catalog methods that never bump the schema version keying the versioned cache (vcache)",
	Run:  runCatVer,
}

// VersionKeyedCaches registers every cache type whose entries embed
// the catalog schema version in their key — the consumers the catver
// contract protects — with a file in each package that instantiates
// it and therefore must read Catalog.Version(). There is one such
// type; the lint meta-test asserts its key carries the version and
// that each instantiating package reads it, so a second hand-rolled
// cache must be added here (and one that drops the version from its
// key fails the build until the registry is updated).
var VersionKeyedCaches = map[string][]string{
	"vcache.Cache": {
		"internal/vcache/vcache.go",
		"internal/core/cache.go", // verdicts and norm extractions
		"uniqopt.go",             // compiled statements
	},
}

func runCatVer(pass *Pass) {
	if !pkgIs(pass.Pkg, "internal/catalog") {
		return
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || fd.Recv == nil || !fd.Name.IsExported() {
				continue
			}
			recv := receiverObj(pass.Info, fd)
			if recv == nil {
				continue
			}
			mutPos := mutatesReceiver(pass.Info, fd, recv)
			if mutPos == nil {
				continue
			}
			if bumpsVersion(fd) {
				continue
			}
			pass.Report(fd.Name.Pos(),
				"exported method %s mutates the catalog schema (e.g. line %d) without bumping the schema version; stale vcache.Cache entries (verdicts, compiled statements) would keep licensing rewrites for the old constraint set — call Bump (or the table's bump helper)",
				fd.Name.Name, pass.Fset.Position(mutPos.Pos()).Line)
		}
	}
}

// mutatesReceiver returns the position of the first write whose target
// is rooted at the receiver (field assignment, indexed/map assignment
// through a receiver field, or ++/--), or nil.
func mutatesReceiver(info *types.Info, fd *ast.FuncDecl, recv *types.Var) *ast.Ident {
	var hit *ast.Ident
	check := func(target ast.Expr) {
		if hit != nil {
			return
		}
		// A write to the receiver must go through at least one
		// selector (t.Field = ..., t.m[k] = ...); a bare `t = ...`
		// rebinds the local variable and mutates nothing.
		if _, plain := target.(*ast.Ident); plain {
			return
		}
		root := rootIdent(target)
		if root != nil && objOf(info, root) == recv {
			hit = root
		}
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range x.Lhs {
				check(lhs)
			}
		case *ast.IncDecStmt:
			check(x.X)
		}
		return true
	})
	return hit
}

// bumpsVersion reports whether the body contains a version bump: a
// call to a method named Bump/bump/bumped, or version.Add(...).
func bumpsVersion(fd *ast.FuncDecl) bool {
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		switch sel.Sel.Name {
		case "Bump", "bump", "bumped":
			found = true
		case "Add", "Store":
			if inner, ok := sel.X.(*ast.SelectorExpr); ok && inner.Sel.Name == "version" {
				found = true
			}
		}
		return !found
	})
	return found
}
