package eval

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"uniqopt/internal/catalog"
	"uniqopt/internal/sql/ast"
	"uniqopt/internal/sql/parser"
	"uniqopt/internal/tvl"
	"uniqopt/internal/value"
)

// The differential test: Compile must agree with the reference
// interpreter Truth on every generated predicate × row — the same
// truth value and, when evaluation fails, the same error text, which
// pins that unbound names and kind mismatches are raised at the same
// point behind AND/OR short-circuits.

// diffCols is the row layout the generated predicates run against: one
// column per kind, one that is NULL in every row, one qualified name,
// and one name that an outer binding also carries (the row must win).
var diffCols = []string{"I", "S", "B", "N", "T.Q", "SHADOW"}

// genRow draws a row for diffCols; any cell may be NULL.
func genRow(r *rand.Rand) value.Row {
	cell := func(v value.Value) value.Value {
		if r.Intn(4) == 0 {
			return value.Null
		}
		return v
	}
	return value.Row{
		cell(value.Int(int64(r.Intn(5)))),
		cell(value.String_(string(rune('a' + r.Intn(3))))),
		cell(value.Bool(r.Intn(2) == 0)),
		value.Null,
		cell(value.Int(int64(r.Intn(5)))),
		cell(value.Int(int64(r.Intn(5)))),
	}
}

// genOperand draws an operand: a column of any kind (bound by the row,
// bound by the outer environment, or unbound), a literal of any kind,
// a host variable (bound or unbound), or — rarely — a boolean
// expression where an operand belongs.
func genOperand(r *rand.Rand) ast.Expr {
	switch r.Intn(16) {
	case 0, 1, 2:
		return &ast.ColumnRef{Column: "I"}
	case 3:
		return &ast.ColumnRef{Column: "S"}
	case 4:
		return &ast.ColumnRef{Column: "B"}
	case 5:
		return &ast.ColumnRef{Column: "N"}
	case 6:
		return &ast.ColumnRef{Qualifier: "T", Column: "Q"}
	case 7:
		// Qualified reference that falls back to the bare name.
		return &ast.ColumnRef{Qualifier: "X", Column: "I"}
	case 8:
		return &ast.ColumnRef{Column: []string{"SHADOW", "OUTER", "UNBOUND"}[r.Intn(3)]}
	case 9, 10:
		return &ast.IntLit{V: int64(r.Intn(5))}
	case 11:
		return &ast.StringLit{V: string(rune('a' + r.Intn(3)))}
	case 12:
		if r.Intn(2) == 0 {
			return &ast.NullLit{}
		}
		return &ast.BoolLit{V: r.Intn(2) == 0}
	case 13, 14:
		return &ast.HostVar{Name: []string{"H", "HS", "HNULL", "MISSING"}[r.Intn(4)]}
	default:
		if r.Intn(4) == 0 {
			return &ast.IsNull{X: &ast.ColumnRef{Column: "I"}}
		}
		return &ast.ColumnRef{Column: "I"}
	}
}

// genPred draws a predicate of every boolean node Compile accepts.
func genPred(r *rand.Rand, depth int) ast.Expr {
	if depth > 0 {
		switch r.Intn(7) {
		case 0, 1:
			return &ast.And{L: genPred(r, depth-1), R: genPred(r, depth-1)}
		case 2, 3:
			return &ast.Or{L: genPred(r, depth-1), R: genPred(r, depth-1)}
		case 4:
			return &ast.Not{X: genPred(r, depth-1)}
		}
	}
	switch r.Intn(12) {
	case 0, 1, 2, 3, 4:
		ops := []ast.CompareOp{ast.EqOp, ast.NeOp, ast.LtOp, ast.LeOp, ast.GtOp, ast.GeOp}
		return &ast.Compare{Op: ops[r.Intn(len(ops))], L: genOperand(r), R: genOperand(r)}
	case 5, 6:
		return &ast.Between{X: genOperand(r), Lo: genOperand(r), Hi: genOperand(r), Negated: r.Intn(2) == 0}
	case 7, 8:
		list := make([]ast.Expr, 1+r.Intn(3))
		for i := range list {
			list[i] = genOperand(r)
		}
		return &ast.InList{X: genOperand(r), List: list, Negated: r.Intn(2) == 0}
	case 9, 10:
		return &ast.IsNull{X: genOperand(r), Negated: r.Intn(2) == 0}
	default:
		if r.Intn(3) == 0 {
			// Not a boolean expression: the error must stay lazy.
			return &ast.ColumnRef{Column: "I"}
		}
		return &ast.BoolLit{V: r.Intn(2) == 0}
	}
}

// interpret is the reference: Truth with row bound over env.Cols.
func interpret(pred ast.Expr, cols []string, row value.Row, proto *Env) (tvl.Truth, error) {
	env := *proto
	env.Cols = make(map[string]value.Value, len(proto.Cols)+len(cols))
	for k, v := range proto.Cols {
		env.Cols[k] = v
	}
	for i, c := range cols {
		env.Cols[c] = row[i]
	}
	return Truth(pred, &env)
}

func agree(t *testing.T, pred ast.Expr, cols []string, row value.Row, env *Env, compiled Pred) (failed bool) {
	t.Helper()
	want, wantErr := interpret(pred, cols, row, env)
	got, gotErr := compiled(row)
	if (wantErr == nil) != (gotErr == nil) ||
		(wantErr != nil && wantErr.Error() != gotErr.Error()) {
		t.Errorf("%s on %s:\n  Truth   error %v\n  Compile error %v", pred.SQL(), row, wantErr, gotErr)
		return true
	}
	if got != want {
		t.Errorf("%s on %s: Compile = %v, Truth = %v", pred.SQL(), row, got, want)
		return true
	}
	return false
}

// kernelCoverage taps the compiler: it counts the kernels chosen and
// records, per kernel kind and operator, which kinds of cell each one
// met — one of its own kind, a NULL, one of another kind.
type kernelCoverage struct {
	chosen int
	met    map[string]bool
}

func (kc *kernelCoverage) tap(kind value.Kind, op ast.CompareOp, ord int, p Pred) Pred {
	kc.chosen++
	return func(row value.Row) (tvl.Truth, error) {
		cell := "mismatched"
		switch row[ord].Kind() {
		case value.KindNull:
			cell = "NULL"
		case kind:
			cell = "matching"
		}
		kc.met[fmt.Sprintf("%s %s on a %s cell", kind, op, cell)] = true
		return p(row)
	}
}

// missing lists the (kind × operator × cell) combinations no kernel ran
// on.
func (kc *kernelCoverage) missing() (out []string) {
	for _, kind := range []value.Kind{value.KindInt, value.KindString} {
		for _, op := range []ast.CompareOp{ast.EqOp, ast.NeOp, ast.LtOp, ast.LeOp, ast.GtOp, ast.GeOp} {
			for _, cell := range []string{"matching", "NULL", "mismatched"} {
				if c := fmt.Sprintf("%s %s on a %s cell", kind, op, cell); !kc.met[c] {
					out = append(out, c)
				}
			}
		}
	}
	return out
}

// diffEnv is the environment the generated predicates run in: outer
// bindings (one the row shadows) and host variables of every kind, one
// of them NULL; :MISSING is unbound.
func diffEnv() *Env {
	return &Env{
		Cols: map[string]value.Value{
			"OUTER":  value.Int(3),
			"SHADOW": value.String_("outer value the row must hide"),
		},
		Hosts: map[string]value.Value{
			"H": value.Int(2), "HS": value.String_("b"), "HNULL": value.Null,
		},
	}
}

func TestCompileAgreesWithTruth(t *testing.T) {
	r := rand.New(rand.NewSource(1994))
	cov := &kernelCoverage{met: map[string]bool{}}
	withKernel := 0
	env := diffEnv()
	truths, errs, failures := map[tvl.Truth]int{}, 0, 0
	for i := 0; i < 4000 && failures < 10; i++ {
		pred := genPred(r, r.Intn(4))
		compiled := Compile(pred, diffCols, env)
		// The same compilation again, tapped: what Compile built, with
		// every kernel reporting the cells it meets.
		before := cov.chosen
		tapped := (&compiler{cols: diffCols, env: env, tap: cov.tap}).truth(pred)
		if cov.chosen > before {
			withKernel++
		}
		for j := 0; j < 8; j++ {
			row := genRow(r)
			if agree(t, pred, diffCols, row, env, compiled) || agree(t, pred, diffCols, row, env, tapped) {
				failures++
				break
			}
			if v, err := compiled(row); err != nil {
				errs++
			} else {
				truths[v]++
			}
		}
	}
	// The generator must reach every outcome, or the sweep proves less
	// than it claims.
	if truths[tvl.True] == 0 || truths[tvl.False] == 0 || truths[tvl.Unknown] == 0 || errs == 0 {
		t.Fatalf("generator coverage: truths %v, errors %d", truths, errs)
	}
	// And it must reach the kernels: in a good share of the predicates,
	// and every kernel on a cell it decides, on a NULL and on a cell of
	// another kind, which it hands to the generic comparison.
	if withKernel < 1000 {
		t.Errorf("only %d of the 4000 predicates contained a kernel, want at least 1000", withKernel)
	}
	if missing := cov.missing(); len(missing) > 0 {
		t.Errorf("no kernel ran as: %q", missing)
	}
}

// genConjunction draws a WHERE clause of the shape Filter.Select takes:
// an AND, nested either way, of one to four comparisons of a row column
// with something constant — an integer, a string or NULL, a literal or a
// host variable, bound or not, on either side — and now and then a leaf
// of any other shape, which keeps the clause on the row path.
func genConjunction(r *rand.Rand) ast.Expr {
	leaf := func() ast.Expr {
		if r.Intn(10) == 0 {
			return genPred(r, 1)
		}
		intK := func() ast.Expr {
			if r.Intn(3) == 0 {
				return &ast.HostVar{Name: "H"}
			}
			return &ast.IntLit{V: int64(r.Intn(5))}
		}
		strK := func() ast.Expr {
			if r.Intn(3) == 0 {
				return &ast.HostVar{Name: "HS"}
			}
			return &ast.StringLit{V: string(rune('a' + r.Intn(3)))}
		}
		// Mostly a constant of the column's own kind; now and then one of
		// the other kind, NULL or unbound, or a column that is always NULL
		// or a boolean.
		var col *ast.ColumnRef
		var k ast.Expr
		switch r.Intn(10) {
		case 0, 1, 2:
			col, k = &ast.ColumnRef{Column: "I"}, intK()
		case 3:
			col, k = &ast.ColumnRef{Qualifier: "T", Column: "Q"}, intK()
		case 4, 5, 6:
			col, k = &ast.ColumnRef{Column: "S"}, strK()
		case 7:
			col, k = &ast.ColumnRef{Column: []string{"I", "S"}[r.Intn(2)]}, []func() ast.Expr{intK, strK}[r.Intn(2)]()
		case 8:
			col, k = &ast.ColumnRef{Column: "I"}, []ast.Expr{&ast.NullLit{}, &ast.HostVar{Name: "HNULL"},
				&ast.HostVar{Name: "MISSING"}}[r.Intn(3)]
		default:
			col, k = &ast.ColumnRef{Column: []string{"N", "B"}[r.Intn(2)]}, intK()
		}
		ops := []ast.CompareOp{ast.EqOp, ast.NeOp, ast.LtOp, ast.LeOp, ast.GtOp, ast.GeOp}
		c := &ast.Compare{Op: ops[r.Intn(len(ops))], L: col, R: k}
		if r.Intn(3) == 0 {
			c.L, c.R = c.R, c.L
		}
		return c
	}
	e := leaf()
	for n := r.Intn(4); n > 0; n-- {
		if r.Intn(2) == 0 {
			e = &ast.And{L: e, R: leaf()}
		} else {
			e = &ast.And{L: leaf(), R: e}
		}
	}
	return e
}

// genBatch draws up to a dozen rows for diffCols. A clean batch holds
// only cells of each column's own kind, so a kernel owns every cell it
// meets; in a dirty one any cell of I, S and T.Q may be NULL or of
// another kind, which a kernel must hand back.
func genBatch(r *rand.Rand) []value.Row {
	dirty := r.Intn(3) == 0
	batch := make([]value.Row, r.Intn(13))
	for i := range batch {
		row := value.Row{
			value.Int(int64(r.Intn(5))),
			value.String_(string(rune('a' + r.Intn(3)))),
			value.Bool(r.Intn(2) == 0),
			value.Null,
			value.Int(int64(r.Intn(5))),
			value.Int(int64(r.Intn(5))),
		}
		for _, c := range []int{0, 1, 4} {
			if !dirty || r.Intn(4) != 0 {
				continue
			}
			if r.Intn(2) == 0 {
				row[c] = value.Null
			} else if row[c].Kind() == value.KindInt {
				row[c] = value.String_("a")
			} else {
				row[c] = value.Int(1)
			}
		}
		batch[i] = row
	}
	return batch
}

// qualifyingRows is the engine's row loop over p: the rows p accepts
// under the false-interpreted WHERE semantics, in order, appended to
// out, or the first error and the index of the row that raised it.
func qualifyingRows(out, batch []value.Row, p Pred) ([]value.Row, error, int) {
	for i, row := range batch {
		t, err := p(row)
		if err != nil {
			return nil, err, i
		}
		if tvl.FalseInterpreted(t) {
			out = append(out, row)
		}
	}
	return out, nil, -1
}

// batchOutcome is what checkBatch saw.
type batchOutcome int

const (
	batchDecided     batchOutcome = iota // Select decided the batch
	batchRowPath                         // Select handed it back; the row loop kept rows
	batchRowPathErrs                     // Select handed it back; the row loop failed
)

// checkBatch holds Pred to Truth on every row of batch, then runs Select
// over batch behind a prefix of rows already in the output, and holds
// it to the row loop over Pred: when Select
// decides the batch, the row loop must raise no error and keep exactly
// the rows Select appended, the same rows in the same order, with the
// prefix untouched; when Select hands the batch back it must leave the
// output as it came, and the caller's row loop is then the answer — the
// same rows, or the same error from the same row — by construction.
func checkBatch(t *testing.T, pred ast.Expr, env *Env, batch []value.Row) (batchOutcome, bool) {
	t.Helper()
	f := CompileFilter(pred, diffCols, env)
	for _, row := range batch {
		if agree(t, pred, diffCols, row, env, f.Pred) {
			return 0, false
		}
	}
	prefix := []value.Row{{value.Int(-1)}, {value.Int(-2)}}
	want, wantErr, at := qualifyingRows(nil, batch, f.Pred)
	got, ok := f.Select(append(make([]value.Row, 0, 4), prefix...), batch, slices.Grow[[]value.Row])
	if len(got) < len(prefix) || &got[0][0] != &prefix[0][0] || &got[1][0] != &prefix[1][0] {
		t.Errorf("%s: Select disturbed the rows already in the output", pred.SQL())
		return 0, false
	}
	if !ok {
		if len(got) != len(prefix) {
			t.Errorf("%s: Select handed the batch back with %d rows appended", pred.SQL(), len(got)-len(prefix))
			return 0, false
		}
		if wantErr != nil {
			return batchRowPathErrs, true
		}
		return batchRowPath, true
	}
	if wantErr != nil {
		t.Errorf("%s on %v: Select decided the batch, the row loop fails at row %d: %v", pred.SQL(), batch, at, wantErr)
		return 0, false
	}
	got = got[len(prefix):]
	same := len(got) == len(want)
	for i := 0; same && i < len(got); i++ {
		same = &got[i][0] == &want[i][0]
	}
	if !same {
		t.Errorf("%s on %v: Select kept %v, the row loop %v", pred.SQL(), batch, got, want)
		return 0, false
	}
	return batchDecided, true
}

// TestFilterBatchAgreesWithRows is the batch filter's differential test:
// every generated clause over every generated batch, Select against the
// row loop over the clause's own Pred, and Pred against Truth.
func TestFilterBatchAgreesWithRows(t *testing.T) {
	r := rand.New(rand.NewSource(27))
	env := diffEnv()
	seen := map[batchOutcome]int{}
	multi := 0 // batches decided by two or more kernels
	for i := 0; i < 3000; i++ {
		pred := genConjunction(r)
		kernels := len(CompileFilter(pred, diffCols, env).conj)
		for j := 0; j < 6; j++ {
			out, ok := checkBatch(t, pred, env, genBatch(r))
			if !ok {
				return
			}
			seen[out]++
			if out == batchDecided && kernels > 1 {
				multi++
			}
		}
	}
	t.Logf("%d batches decided (%d by several kernels), %d handed back, %d handed back to fail",
		seen[batchDecided], multi, seen[batchRowPath], seen[batchRowPathErrs])
	// The sweep must reach every outcome, or it proves less than it claims.
	if seen[batchDecided] < 4000 || seen[batchRowPath] < 3000 || seen[batchRowPathErrs] < 5000 || multi < 2500 {
		t.Errorf("coverage: %d decided (%d by several kernels), %d handed back, %d handed back to fail",
			seen[batchDecided], multi, seen[batchRowPath], seen[batchRowPathErrs])
	}
}

// A batch longer than Select's selection vector is decided a chunk at a
// time: rows kept by an early chunk are in the output when a later one
// meets a cell it does not own, and handing the batch back must take
// them out again.
func TestFilterBatchSpansChunks(t *testing.T) {
	env := diffEnv()
	pred := expr(t, "I >= 1 AND S <> 'c'")
	batch := make([]value.Row, 2*selChunk+100)
	for i := range batch {
		batch[i] = value.Row{value.Int(int64(i % 5)), value.String_(string(rune('a' + i%3))),
			value.Bool(true), value.Null, value.Int(0), value.Int(0)}
	}
	if out, ok := checkBatch(t, pred, env, batch); !ok || out != batchDecided {
		t.Fatalf("a clean %d-row batch: outcome %v, want decided", len(batch), out)
	}
	batch[2*selChunk+50] = value.Row{value.Null, value.String_("a"), value.Bool(true), value.Null, value.Int(0), value.Int(0)}
	if out, ok := checkBatch(t, pred, env, batch); !ok || out != batchRowPath {
		t.Fatalf("a NULL in the last chunk: outcome %v, want handed back", out)
	}
}

// FuzzFilterBatch is TestFilterBatchAgreesWithRows from a fuzzed seed.
func FuzzFilterBatch(f *testing.F) {
	for _, seed := range []int64{0, 1, 27, 1994} {
		f.Add(seed)
	}
	env := diffEnv()
	f.Fuzz(func(t *testing.T, seed int64) {
		r := rand.New(rand.NewSource(seed))
		checkBatch(t, genConjunction(r), env, genBatch(r))
	})
}

// Errors sit behind short-circuits exactly where Truth leaves them: an
// unbound host variable or column, or a kind mismatch, on the far side
// of a decided AND/OR is never evaluated; on the near side it is raised
// even when the far side would have decided.
func TestCompileShortCircuitKeepsErrorsLazy(t *testing.T) {
	env := &Env{Hosts: map[string]value.Value{"H": value.Int(1)}}
	cols := []string{"A", "S"}
	row := value.Row{value.Int(1), value.String_("x")}
	cases := []struct {
		src     string
		wantErr bool
	}{
		{"A = 2 AND A = :MISSING", false},
		{"A = :MISSING AND A = 2", true},
		{"A = 1 OR A = :MISSING", false},
		{"A = :MISSING OR A = 1", true},
		{"A = 2 AND Z = 1", false},
		{"A = 1 AND Z = 1", true},
		{"A = 1 OR A = S", false},
		{"A = 2 OR A = S", true},
		{"A = 2 AND A = 'x'", false},
		{"A IN (1, 'x')", false}, // the match is found first
		{"A IN ('x', 1)", true},
		{"A BETWEEN 5 AND 'x'", true}, // both bounds are evaluated
	}
	for _, c := range cases {
		pred := expr(t, c.src)
		compiled := Compile(pred, cols, env)
		_, err := compiled(row)
		if (err != nil) != c.wantErr {
			t.Errorf("%s: error = %v, want error %v", c.src, err, c.wantErr)
		}
		agree(t, pred, cols, row, env, compiled)
	}
}

// With a scope, references canonicalize to CORRELATION.COLUMN before
// they are looked up, in the row's layout first and the outer bindings
// second; resolution failures are raised when the leaf is evaluated.
func TestCompileAgreesWithTruthUnderScope(t *testing.T) {
	cat := catalog.New()
	for _, def := range []struct {
		name string
		cols []catalog.Column
	}{
		{"S", []catalog.Column{{Name: "SNO", Type: value.KindInt}, {Name: "CITY", Type: value.KindString}}},
		{"P", []catalog.Column{{Name: "PNO", Type: value.KindInt}, {Name: "SNO", Type: value.KindInt}}},
	} {
		tb, err := catalog.NewTable(def.name, def.cols)
		if err != nil {
			t.Fatal(err)
		}
		if err := cat.Define(tb); err != nil {
			t.Fatal(err)
		}
	}
	outer, err := catalog.NewScope(cat, []ast.TableRef{{Table: "S", Alias: "X"}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	inner, err := catalog.NewScope(cat, []ast.TableRef{{Table: "P"}}, outer)
	if err != nil {
		t.Fatal(err)
	}
	env := &Env{
		Scope: inner,
		Cols:  map[string]value.Value{"X.SNO": value.Int(2)}, // X.CITY resolves but is not bound
		Hosts: map[string]value.Value{"H": value.Int(2)},
	}
	cols := []string{"P.PNO", "P.SNO"}
	rows := []value.Row{
		{value.Int(1), value.Int(2)},
		{value.Int(2), value.Null},
		{value.Int(3), value.Int(3)},
	}
	for _, src := range []string{
		"PNO = 1",
		"P.SNO = X.SNO",
		"SNO = :H",     // the local block's SNO, not the outer one
		"X.SNO = 2",    // an outer binding, folded to a constant
		"X.CITY = 'a'", // resolved but not bound
		"CITY = 'a'",   // resolves in the outer block, not bound
		"Q.SNO = 1",    // unknown qualifier
		"NOSUCH = 1",   // unknown column
		"P.NOSUCH = 1", // known table, unknown column
		"PNO = 9 AND NOSUCH = 1",
		"PNO = 1 AND NOSUCH = 1",
		"P.SNO IS NULL OR X.CITY IS NULL",
		"PNO BETWEEN X.SNO AND 3",
		"PNO NOT IN (X.SNO, :H, 7)",
	} {
		pred := expr(t, src)
		compiled := Compile(pred, cols, env)
		for _, row := range rows {
			agree(t, pred, cols, row, env, compiled)
		}
	}
}

// Subquery leaves are not compiled: the returned Pred interprets, and
// the callback sees the row bound into the environment it is handed.
func TestCompileFallsBackForSubqueries(t *testing.T) {
	var seen []value.Value
	env := &Env{
		Cols: map[string]value.Value{"OUTER": value.Int(9)},
		Exists: func(sub *ast.Select, env *Env) (tvl.Truth, error) {
			seen = append(seen, env.Cols["A"], env.Cols["OUTER"])
			return tvl.Of(env.Cols["A"].AsInt() > 1), nil
		},
	}
	pred := &ast.And{
		L: &ast.Compare{Op: ast.GeOp, L: &ast.ColumnRef{Column: "A"}, R: &ast.IntLit{V: 1}},
		R: &ast.Exists{Query: &ast.Select{}},
	}
	compiled := Compile(pred, []string{"A"}, env)
	for a, want := range map[int64]tvl.Truth{0: tvl.False, 1: tvl.False, 2: tvl.True} {
		got, err := compiled(value.Row{value.Int(a)})
		if err != nil || got != want {
			t.Errorf("A=%d: got %v, %v; want %v", a, got, err, want)
		}
	}
	if len(seen) != 4 { // A=0 short-circuits before the subquery
		t.Fatalf("EXISTS callback saw %v, want two calls", seen)
	}
	for i := 1; i < len(seen); i += 2 {
		if fmt.Sprint(seen[i]) != "9" {
			t.Errorf("callback lost the outer binding: %v", seen)
		}
	}
	if _, ok := env.Cols["A"]; ok {
		t.Error("Compile bound rows into the caller's environment instead of a private copy")
	}
	if got, err := Compile(nil, nil, env)(nil); err != nil || !tvl.IsTrue(got) {
		t.Errorf("nil predicate = %v, %v; want TRUE", got, err)
	}
}

// BenchmarkCompile prices building a predicate for one operator; the
// design rests on it being far cheaper than caching would save.
func BenchmarkCompile(b *testing.B) {
	pred, err := parser.ParseExpr("COLOR <> 'RED' AND PNO > :K AND OEM-PNO < :M")
	if err != nil {
		b.Fatal(err)
	}
	cols := []string{"P.SNO", "P.PNO", "P.PNAME", "P.OEM-PNO", "P.COLOR"}
	env := &Env{Hosts: map[string]value.Value{"K": value.Int(3), "M": value.Int(900)}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkPred = Compile(pred, cols, env)
	}
}

// BenchmarkCompiledVsInterpreted prices one row through each evaluator.
func BenchmarkCompiledVsInterpreted(b *testing.B) {
	pred, err := parser.ParseExpr("COLOR <> 'RED' AND PNO > :K AND OEM-PNO < :M")
	if err != nil {
		b.Fatal(err)
	}
	cols := []string{"SNO", "PNO", "PNAME", "OEM-PNO", "COLOR"}
	env := &Env{Hosts: map[string]value.Value{"K": value.Int(3), "M": value.Int(900)}}
	row := value.Row{value.Int(1), value.Int(7), value.String_("bolt"), value.Int(800), value.String_("BLUE")}
	b.Run("compiled", func(b *testing.B) {
		p := Compile(pred, cols, env)
		for i := 0; i < b.N; i++ {
			sinkTruth, _ = p(row)
		}
	})
	b.Run("interpreted", func(b *testing.B) {
		// Bind the row into a reused map, then walk the AST: the
		// per-row loop Compile replaced, and still its fallback.
		p := interpreted(pred, cols, env)
		for i := 0; i < b.N; i++ {
			sinkTruth, _ = p(row)
		}
	})
}

var (
	sinkPred  Pred
	sinkTruth tvl.Truth
)

// BenchmarkComparePred prices one comparison per row over a 1,024-row
// batch: an integer and a string kernel against the generic closure a
// column-against-column comparison still runs.
func BenchmarkComparePred(b *testing.B) {
	cols := []string{"SNO", "PNO", "COLOR", "OEM-PNO"}
	colors := []string{"RED", "BLUE", "GREEN", "BLACK"}
	rows := make([]value.Row, 1024)
	for i := range rows {
		rows[i] = value.Row{value.Int(int64(i / 25)), value.Int(int64(i % 25)),
			value.String_(colors[i%len(colors)]), value.Int(int64(1000 + 7*i))}
	}
	env := &Env{Hosts: map[string]value.Value{"K": value.Int(12)}}
	for _, bc := range []struct{ name, src string }{
		{"int-kernel", "PNO >= :K"},
		{"string-kernel", "COLOR = 'RED'"},
		{"generic-colcol", "PNO >= SNO"},
	} {
		b.Run(bc.name, func(b *testing.B) {
			pred, err := parser.ParseExpr(bc.src)
			if err != nil {
				b.Fatal(err)
			}
			p := Compile(pred, cols, env)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, row := range rows {
					sinkTruth, _ = p(row)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(rows)), "ns/row")
		})
	}
}
