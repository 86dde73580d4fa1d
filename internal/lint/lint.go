// Package lint is a stdlib-only static-analysis framework for this
// repository. It exists because the invariants the reproduction leans
// on are invisible to the Go compiler: predicates must flow through
// internal/tvl's three-valued logic instead of collapsing to bool,
// rows must not be mutated after they are shared across a partition or
// channel boundary, engine.Stats counters must cross goroutines only
// through the atomic API in stats.go, catalog mutations must bump the
// schema version that keys core.VerdictCache, and map iteration must
// not leak nondeterministic order into plans or output.
//
// The framework deliberately mirrors a slimmed-down
// golang.org/x/tools/go/analysis: an Analyzer inspects one typed
// package (a Pass) and reports Findings. The driver in driver.go walks
// ./... , typechecks every package with the source loader in
// loader.go, and applies //lint:allow suppressions.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named analysis pass.
type Analyzer struct {
	// Name identifies the analyzer in findings and in //lint:allow
	// suppression comments.
	Name string
	// Doc is a one-paragraph description of the enforced invariant.
	Doc string
	// Run inspects the pass and reports findings via pass.Report.
	Run func(*Pass)
}

// Pass is one typed package presented to an analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	// report receives findings; installed by the driver or test harness.
	report func(Finding)
	// shared holds per-unit state (the dataflow Analysis) reused by
	// every analyzer over the same typed unit; installed by the driver.
	shared *unitState
}

// unitState is the lazily built state shared by all analyzers of one
// typed unit.
type unitState struct {
	df *Analysis
}

// Dataflow returns the unit's shared dataflow analysis — function
// summaries at fixed point plus cached CFGs — building it on first
// use. Every analyzer of the same unit receives the same instance, so
// the summary fixpoint runs once per unit, not once per analyzer.
func (p *Pass) Dataflow() *Analysis {
	if p.shared == nil {
		p.shared = &unitState{}
	}
	if p.shared.df == nil {
		p.shared.df = NewAnalysis(p.Fset, p.Pkg, p.Info, p.Files)
	}
	return p.shared.df
}

// Finding is one reported diagnostic.
type Finding struct {
	Pos      token.Position
	Analyzer string
	Message  string
	// Suppressed is set by the driver when a //lint:allow directive
	// covers the finding.
	Suppressed bool
}

// String renders the finding in the canonical file:line: [analyzer]
// message form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Analyzer, f.Message)
}

// Report records a finding at pos.
func (p *Pass) Report(pos token.Pos, format string, args ...any) {
	p.report(Finding{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// All returns every analyzer the suite ships, in reporting order.
func All() []*Analyzer {
	return []*Analyzer{TvlBool, RowAlias, StatsAtomic, CatVer, DetOrder, CtxFlow, IterLife,
		GovPair, IterState, BatchLife, FileLife, AllowStale}
}

// ByName resolves a comma/space separated analyzer list; unknown names
// are returned verbatim in the second result.
func ByName(names string) (found []*Analyzer, unknown []string) {
	all := All()
	for _, n := range strings.FieldsFunc(names, func(r rune) bool { return r == ',' || r == ' ' }) {
		ok := false
		for _, a := range all {
			if a.Name == n {
				found = append(found, a)
				ok = true
				break
			}
		}
		if !ok {
			unknown = append(unknown, n)
		}
	}
	return found, unknown
}

// sortFindings orders findings by file, line, then analyzer name, so
// output is deterministic across runs.
func sortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}

// --- shared type-matching helpers -----------------------------------

// pkgIs reports whether pkg is the repository package with the given
// import-path suffix (e.g. "internal/tvl"). Fixture packages under
// testdata mirror the real import paths, so exact-suffix matching
// works for both.
func pkgIs(pkg *types.Package, suffix string) bool {
	if pkg == nil {
		return false
	}
	p := pkg.Path()
	return p == suffix || strings.HasSuffix(p, "/"+suffix)
}

// namedFrom reports whether t (after pointer indirection) is the named
// type name declared in the repository package with the import-path
// suffix pkgSuffix.
func namedFrom(t types.Type, pkgSuffix, name string) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Name() == name && pkgIs(obj.Pkg(), pkgSuffix)
}

// isRowType reports whether t is value.Row or a slice of it ([]Row),
// the shared row representation whose aliasing the rowalias analyzer
// polices.
func isRowType(t types.Type) bool {
	if t == nil {
		return false
	}
	if namedFrom(t, "internal/value", "Row") {
		return true
	}
	if sl, ok := t.Underlying().(*types.Slice); ok {
		return namedFrom(sl.Elem(), "internal/value", "Row")
	}
	return false
}

// receiverObj resolves the receiver variable of a method declaration,
// or nil for functions and anonymous receivers.
func receiverObj(info *types.Info, fd *ast.FuncDecl) *types.Var {
	if fd.Recv == nil || len(fd.Recv.List) == 0 || len(fd.Recv.List[0].Names) == 0 {
		return nil
	}
	obj, _ := info.Defs[fd.Recv.List[0].Names[0]].(*types.Var)
	return obj
}

// rootIdent walks selector/index/paren/star expressions down to the
// base identifier, e.g. t.Keys[i].Columns → t. Returns nil when the
// base is not a plain identifier.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// objOf resolves an identifier to its variable object, following uses
// and defs.
func objOf(info *types.Info, id *ast.Ident) *types.Var {
	if obj, ok := info.Uses[id].(*types.Var); ok {
		return obj
	}
	if obj, ok := info.Defs[id].(*types.Var); ok {
		return obj
	}
	return nil
}
