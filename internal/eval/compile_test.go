package eval

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"strings"
	"testing"

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

// genSubquery draws the subquery of an EXISTS or IN leaf, for fakeIn to
// answer: its select list is the answer, one value an item, read for the
// row being decided — none, integers and strings (the wrong kind for some
// operands), NULLs, the row's own cells (a correlated answer) or an outer
// binding; a FROM clause makes the run fail.
func genSubquery(r *rand.Rand) *ast.Select {
	sub := &ast.Select{Items: make([]ast.SelectItem, r.Intn(4))}
	for i := range sub.Items {
		sub.Items[i].Expr = []ast.Expr{
			&ast.IntLit{V: int64(r.Intn(5))}, &ast.IntLit{V: int64(r.Intn(5))},
			&ast.StringLit{V: string(rune('a' + r.Intn(3)))}, &ast.NullLit{},
			&ast.ColumnRef{Column: "I"}, &ast.ColumnRef{Column: "S"}, &ast.ColumnRef{Column: "OUTER"},
		}[r.Intn(7)]
	}
	if r.Intn(12) == 0 {
		sub.From = []ast.TableRef{{Table: "FAILS"}}
	}
	return sub
}

// fakeIn is the IN callback genSubquery's subqueries run under: the
// values of the select list in env, the row bound over its columns.
func fakeIn(sub *ast.Select, env *Env) ([]value.Value, error) {
	if len(sub.From) > 0 {
		return nil, fmt.Errorf("fake: %s failed", sub.From[0].Table)
	}
	out := make([]value.Value, len(sub.Items))
	for i, item := range sub.Items {
		v, err := Value(item.Expr, env)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// fakeExists is fakeIn's EXISTS callback: TRUE when it answers a value.
func fakeExists(sub *ast.Select, env *Env) (tvl.Truth, error) {
	vals, err := fakeIn(sub, env)
	return tvl.Of(len(vals) > 0), err
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
	switch r.Intn(14) {
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
	case 12:
		return &ast.Exists{Query: genSubquery(r), Negated: r.Intn(2) == 0}
	case 13:
		return &ast.InSubquery{X: genOperand(r), Query: genSubquery(r), Negated: r.Intn(2) == 0}
	default:
		if r.Intn(3) == 0 {
			// Not a boolean expression: the error must stay lazy.
			return &ast.ColumnRef{Column: "I"}
		}
		return &ast.BoolLit{V: r.Intn(2) == 0}
	}
}

// bindRow is proto with row, laid out as cols, bound over its columns.
func bindRow(proto *Env, cols []string, row value.Row) *Env {
	env := *proto
	env.Cols = make(map[string]value.Value, len(proto.Cols)+len(cols))
	maps.Copy(env.Cols, proto.Cols)
	for i, c := range cols {
		env.Cols[c] = row[i]
	}
	return &env
}

// interpret is the reference: Truth with row bound over env.Cols.
func interpret(pred ast.Expr, cols []string, row value.Row, proto *Env) (tvl.Truth, error) {
	return Truth(pred, bindRow(proto, cols, row))
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

// bindEnv lays env out as a binding vector: its host variables, then its
// column bindings as the outer columns of the clause's block, each in
// name order. It returns the Vars Prepare takes and the values Arm does.
func bindEnv(env *Env) (*Vars, []value.Value) {
	vars := &Vars{}
	var vals []value.Value
	for _, k := range sortedNames(env.Hosts) {
		vars.Hosts, vals = append(vars.Hosts, k), append(vals, env.Hosts[k])
	}
	vars.Base = len(vals)
	for _, k := range sortedNames(env.Cols) {
		vars.Outer, vals = append(vars.Outer, k), append(vals, env.Cols[k])
	}
	return vars, vals
}

func sortedNames(m map[string]value.Value) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}

// compileFilterIn prepares pred over cols and arms it under env, laid out
// by bindEnv, with env's subquery callbacks.
func compileFilterIn(pred ast.Expr, cols []string, env *Env) Filter {
	vars, vals := bindEnv(env)
	return Prepare(pred, cols, vars).Arm(vals, subqueryOf(env, cols), nil)
}

// subqueryOf adapts env's subquery callbacks to the Subquery a clause
// over rows laid out as cols is armed with: a run sees the row bound
// over env's columns, as Truth's callbacks do. An EXISTS callback
// answers TRUE or FALSE. nil when env has no callbacks, so that the
// clause fails as Truth does.
func subqueryOf(env *Env, cols []string) Subquery {
	if env.Exists == nil && env.In == nil {
		return nil
	}
	return func(sub *ast.Select, row value.Row, exists bool) ([]value.Value, error) {
		e := bindRow(env, cols, row)
		if !exists {
			return env.In(sub, e)
		}
		t, err := env.Exists(sub, e)
		if err != nil || !tvl.IsTrue(t) {
			return nil, err
		}
		return []value.Value{value.Null}, nil
	}
}

// compileIn is compileFilterIn's row predicate.
func compileIn(pred ast.Expr, cols []string, env *Env) Pred {
	return compileFilterIn(pred, cols, env).Pred
}

// conjunction is filter as a row predicate, with the conjuncts when
// every one is a kernel: how the tests arm a clause with a tapped armer.
func (a *armer) conjunction(leaves []node) (Pred, []Conjunct) {
	f := a.filter(leaves)
	if !f.kernels {
		return f.Pred, nil
	}
	return f.Pred, f.conj
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
// bindings (one the row shadows), host variables of every kind, one of
// them NULL, and the fake subqueries; :MISSING is unbound.
func diffEnv() *Env {
	return &Env{
		Exists: fakeExists,
		In:     fakeIn,
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
	// What the predicates with a subquery leaf came to, by outcome or
	// error text.
	subOutcomes := map[string]int{}
	for i := 0; i < 4000 && failures < 10; i++ {
		pred := genPred(r, r.Intn(4))
		compiled := compileIn(pred, diffCols, env)
		// The same compilation again, tapped: what Compile built, with
		// every kernel reporting the cells it meets.
		before := cov.chosen
		vars, vals := bindEnv(env)
		tapped, _ := (&armer{vals: vals, sub: subqueryOf(env, diffCols), tap: cov.tap}).conjunction(Prepare(pred, diffCols, vars).leaves)
		if cov.chosen > before {
			withKernel++
		}
		for j := 0; j < 8; j++ {
			row := genRow(r)
			if agree(t, pred, diffCols, row, env, compiled) || agree(t, pred, diffCols, row, env, tapped) {
				failures++
				break
			}
			v, err := compiled(row)
			if err != nil {
				errs++
			} else {
				truths[v]++
			}
			if ast.HasExists(pred) {
				subOutcomes[subOutcome(v, err)]++
			}
		}
	}
	// The generator must reach every outcome, or the sweep proves less
	// than it claims — with a subquery leaf in the predicate too.
	if truths[tvl.True] == 0 || truths[tvl.False] == 0 || truths[tvl.Unknown] == 0 || errs == 0 {
		t.Fatalf("generator coverage: truths %v, errors %d", truths, errs)
	}
	t.Logf("predicates with a subquery leaf came to %v", subOutcomes)
	for _, o := range []string{"TRUE", "FALSE", "UNKNOWN", "eval: IN compares", "fake: FAILS failed"} {
		if subOutcomes[o] == 0 {
			t.Errorf("no predicate with a subquery leaf came to %q: %v", o, subOutcomes)
		}
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

// subOutcome names what a predicate came to: its truth value, or which
// error it raised — the IN leaf's kind mismatch, the subquery's own
// failure, or another.
func subOutcome(v tvl.Truth, err error) string {
	switch {
	case err == nil:
		return strings.ToUpper(v.String())
	case strings.HasPrefix(err.Error(), "eval: IN compares"):
		return "eval: IN compares"
	case err.Error() == "fake: FAILS failed":
		return err.Error()
	}
	return "another error"
}

// diffEnv2 binds the same host variables as diffEnv to values of other
// kinds — an integer where diffEnv has a string, a string where it has an
// integer, an integer where it has NULL — so that one prepared clause
// armed under both picks other kernels, or none. :MISSING stays unbound:
// the vector has no slot for it, whatever the values.
func diffEnv2() *Env {
	env := diffEnv()
	env.Hosts = map[string]value.Value{
		"H": value.String_("b"), "HS": value.Int(2), "HNULL": value.Int(3),
	}
	return env
}

// genConjunction draws a WHERE clause of the shape Filter.Select takes:
// an AND, nested either way, of one to four comparisons of a row column
// with something constant — an integer, a string or NULL, a literal or a
// host variable, bound or not, on either side — and now and then a
// BETWEEN, an IN-list or a leaf of any other shape, which keep the
// clause on the row path.
func genConjunction(r *rand.Rand) ast.Expr {
	leaf := func() ast.Expr {
		switch r.Intn(20) {
		case 0, 1:
			return genPred(r, 1)
		case 2:
			return &ast.Between{X: genOperand(r), Lo: genOperand(r), Hi: genOperand(r), Negated: r.Intn(2) == 0}
		case 3:
			return &ast.InList{X: genOperand(r), List: []ast.Expr{genOperand(r), genOperand(r)}, Negated: r.Intn(2) == 0}
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
	f := compileFilterIn(pred, diffCols, env)
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

// checkArmed prepares pred once and arms it under diffEnv and diffEnv2,
// both before either runs, and holds each armed clause to CompileFilter
// under the same bindings — Prepare and Arm back to back — row by row in
// truth value and error text, and in what Select does with the batch.
func checkArmed(t *testing.T, pred ast.Expr, batch []value.Row) bool {
	t.Helper()
	envs := []*Env{diffEnv(), diffEnv2()}
	vars, vals1 := bindEnv(envs[0])
	_, vals2 := bindEnv(envs[1])
	prog := Prepare(pred, diffCols, vars)
	armed := []Filter{prog.Arm(vals1, subqueryOf(envs[0], diffCols), nil), prog.Arm(vals2, subqueryOf(envs[1], diffCols), nil)}
	for i, env := range envs {
		f, want := armed[i], compileFilterIn(pred, diffCols, env)
		for _, row := range batch {
			got, gotErr := f.Pred(row)
			w, wantErr := want.Pred(row)
			if got != w || errText(gotErr) != errText(wantErr) {
				t.Errorf("%s on %s under bindings %d: armed = %v, %v; compiled = %v, %v",
					pred.SQL(), row, i+1, got, gotErr, w, wantErr)
				return false
			}
		}
		gotRows, gotOK := f.Select(nil, batch, slices.Grow[[]value.Row])
		wantRows, wantOK := want.Select(nil, batch, slices.Grow[[]value.Row])
		same := gotOK == wantOK && len(gotRows) == len(wantRows)
		for j := 0; same && j < len(gotRows); j++ {
			same = &gotRows[j][0] == &wantRows[j][0]
		}
		if !same {
			t.Errorf("%s on %v under bindings %d: armed Select kept %v (%v), compiled %v (%v)",
				pred.SQL(), batch, i+1, gotRows, gotOK, wantRows, wantOK)
			return false
		}
	}
	return true
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// TestFilterBatchAgreesWithRows is the batch filter's differential test:
// every generated clause over every generated batch, Select against the
// row loop over the clause's own Pred, and Pred against Truth; and the
// clause prepared once and armed under two binding sets against the
// clause compiled afresh under each.
func TestFilterBatchAgreesWithRows(t *testing.T) {
	r := rand.New(rand.NewSource(27))
	env := diffEnv()
	seen := map[batchOutcome]int{}
	multi := 0 // batches decided by two or more kernels
	for i := 0; i < 3000; i++ {
		pred := genConjunction(r)
		kernels := len(compileFilterIn(pred, diffCols, env).conj)
		for j := 0; j < 6; j++ {
			batch := genBatch(r)
			out, ok := checkBatch(t, pred, env, batch)
			if !ok || !checkArmed(t, pred, batch) {
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
		pred, batch := genConjunction(r), genBatch(r)
		if _, ok := checkBatch(t, pred, env, batch); ok {
			checkArmed(t, pred, batch)
		}
	})
}

// FuzzCompileAgreesWithTruth is TestCompileAgreesWithTruth steered by
// the fuzzer: its bytes make genPred's choices, subquery leaves and their
// answers included, and genRow's.
func FuzzCompileAgreesWithTruth(f *testing.F) {
	f.Add([]byte{})
	r := rand.New(rand.NewSource(45))
	for i := 0; i < 32; i++ {
		seed := make([]byte, 48)
		r.Read(seed)
		f.Add(seed)
	}
	env := diffEnv()
	f.Fuzz(func(t *testing.T, data []byte) {
		r := rand.New(&byteSource{data: data})
		pred := genPred(r, r.Intn(4))
		agree(t, pred, diffCols, genRow(r), env, compileIn(pred, diffCols, env))
	})
}

// byteSource is a rand.Source that reads one byte of data a number,
// spread over all its bits, and 0 once data runs out, so that each of a
// generator's choices is one byte a fuzzer can mutate.
type byteSource struct{ data []byte }

func (s *byteSource) Int63() int64 {
	if len(s.data) == 0 {
		return 0
	}
	b := s.data[0]
	s.data = s.data[1:]
	return int64(uint64(b) * 0x0101010101010101 >> 1)
}

func (s *byteSource) Seed(int64) {}

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
		compiled := compileIn(pred, cols, env)
		_, err := compiled(row)
		if (err != nil) != c.wantErr {
			t.Errorf("%s: error = %v, want error %v", c.src, err, c.wantErr)
		}
		agree(t, pred, cols, row, env, compiled)
	}
}

// A subquery leaf hands its subquery the row it decides, whose cells
// the subquery reads by ordinal; its operand may be an outer slot; a
// decided AND runs no subquery; and a clause without one never calls
// the callback.
func TestCompileSubqueryLeaves(t *testing.T) {
	sub := &ast.Select{}
	vars := &Vars{Outer: []string{"OUTER"}}
	cols := []string{"A", "B"}
	var ran []value.Row
	answer := func(q *ast.Select, row value.Row, exists bool) ([]value.Value, error) {
		if q != sub {
			t.Fatalf("ran %v, want the leaf's own subquery", q)
		}
		ran = append(ran, row)
		return []value.Value{row[1], value.Int(9)}, nil
	}
	run := func(src string, vals []value.Value, row value.Row) tvl.Truth {
		t.Helper()
		pred := expr(t, src)
		ast.WalkExpr(pred, func(x ast.Expr) bool {
			switch x := x.(type) {
			case *ast.Exists:
				x.Query = sub
			case *ast.InSubquery:
				x.Query = sub
			}
			return true
		})
		got, err := Prepare(pred, cols, vars).Arm(vals, answer, nil).Pred(row)
		if err != nil {
			t.Fatalf("%s on %s: %v", src, row, err)
		}
		return got
	}
	row := value.Row{value.Int(1), value.Int(5)}
	// The row by ordinal: B's cell is in the answer.
	ran = nil
	if got := run("5 IN (SELECT * FROM T) AND A IN (SELECT * FROM T)", []value.Value{value.Int(0)}, row); !tvl.IsFalse(got) ||
		len(ran) != 2 || &ran[0][0] != &row[0] || &ran[1][0] != &row[0] {
		t.Errorf("5 IN … AND A IN …: %v after runs on %v, want FALSE after two runs on the row itself", got, ran)
	}
	// An outer slot as the operand, read from the binding vector.
	for outer, want := range map[int64]tvl.Truth{9: tvl.True, 8: tvl.False} {
		if got := run("OUTER IN (SELECT * FROM T)", []value.Value{value.Int(outer)}, row); got != want {
			t.Errorf("OUTER = %d: OUTER IN … = %v, want %v", outer, got, want)
		}
	}
	// A decided AND runs no subquery.
	ran = nil
	for a, want := range map[int64]tvl.Truth{0: tvl.False, 1: tvl.True} {
		if got := run("A >= 1 AND EXISTS (SELECT * FROM T)", []value.Value{value.Null}, value.Row{value.Int(a), value.Null}); got != want {
			t.Errorf("A = %d: %v, want %v", a, got, want)
		}
	}
	if len(ran) != 1 {
		t.Errorf("EXISTS ran %d times, want once: A = 0 decides the AND", len(ran))
	}
	// No subquery leaf, no call.
	ran = nil
	if got := run("A = 1 OR B = 2", []value.Value{value.Null}, row); !tvl.IsTrue(got) || len(ran) != 0 {
		t.Errorf("A = 1 OR B = 2: %v after %d subquery runs, want TRUE after none", got, len(ran))
	}
	if got, err := Prepare(nil, nil, nil).Arm(nil, answer, nil).Pred(nil); err != nil || !tvl.IsTrue(got) || len(ran) != 0 {
		t.Errorf("nil predicate = %v, %v; want TRUE", got, err)
	}
}

// BenchmarkCompile prices a predicate for one operator: prepared and
// armed back to back, as a storage CHECK is, and armed alone,
// as an execution of a cached statement does.
func BenchmarkCompile(b *testing.B) {
	pred, err := parser.ParseExpr("P.COLOR <> 'RED' AND P.PNO > :K AND P.OEM-PNO < :M")
	if err != nil {
		b.Fatal(err)
	}
	cols := []string{"P.SNO", "P.PNO", "P.PNAME", "P.OEM-PNO", "P.COLOR"}
	env := &Env{Hosts: map[string]value.Value{"K": value.Int(3), "M": value.Int(900)}}
	b.Run("prepare+arm", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sinkPred = compileIn(pred, cols, env)
		}
	})
	b.Run("arm", func(b *testing.B) {
		vars, vals := bindEnv(env)
		prog := Prepare(pred, cols, vars)
		var ar testArena
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ar.reset()
			sinkFilter = prog.Arm(vals, nil, &ar)
		}
	})
}

// testArena is an Arena as an execution's scratch is one: a chunk
// carved from the front, handed back whole by reset.
type testArena struct {
	ks  []Conjunct
	off int
}

func (a *testArena) Conjuncts(n int) []Conjunct {
	if a.off+n > len(a.ks) {
		a.ks, a.off = make([]Conjunct, max(2*len(a.ks), n)), 0
	}
	a.off += n
	return a.ks[a.off-n : a.off : a.off]
}

func (a *testArena) reset() {
	clear(a.ks[:a.off])
	a.off = 0
}

// TestArmKernelsFromTheArena: a conjunction of kernels arms with no
// allocation once its arena has grown, and decides rows and batches as
// the clause armed on the heap does. A clause with another leaf still
// carves its conjuncts from the arena.
func TestArmKernelsFromTheArena(t *testing.T) {
	cols := []string{"P.SNO", "P.PNO", "P.PNAME", "P.OEM-PNO", "P.COLOR"}
	rows := []value.Row{
		{value.Int(1), value.Int(7), value.String_("bolt"), value.Int(800), value.String_("BLUE")},
		{value.Int(2), value.Int(2), value.String_("nut"), value.Int(950), value.String_("RED")},
		{value.Int(3), value.Int(9), value.String_("cam"), value.Null, value.String_("GREEN")},
	}
	vars := &Vars{Hosts: []string{"K", "M"}}
	vals := []value.Value{value.Int(3), value.Int(900)}
	for _, c := range []struct {
		src    string
		allocs float64
	}{
		{"P.COLOR <> 'RED' AND P.PNO > :K AND P.OEM-PNO < :M", 0},
		{"P.PNO = 7", 0},
		{"P.COLOR = 'RED' OR P.PNO > :K", 3}, // the OR and its two leaves are closures
	} {
		pred, err := parser.ParseExpr(c.src)
		if err != nil {
			t.Fatal(err)
		}
		prog := Prepare(pred, cols, vars)
		var ar testArena
		got := testing.AllocsPerRun(100, func() {
			ar.reset()
			sinkFilter = prog.Arm(vals, nil, &ar)
		})
		if got > c.allocs {
			t.Errorf("%s: arming makes %v allocations, want at most %v", c.src, got, c.allocs)
		}
		ar.reset()
		armed, heap := prog.Arm(vals, nil, &ar), prog.Arm(vals, nil, nil)
		for _, row := range rows {
			g, gerr := armed.Pred(row)
			w, werr := heap.Pred(row)
			if g != w || errText(gerr) != errText(werr) {
				t.Errorf("%s on %v: %v, %v from the arena, %v, %v from the heap", c.src, row, g, gerr, w, werr)
			}
		}
		got1, ok1 := armed.Select(nil, rows, slices.Grow[[]value.Row])
		want1, ok2 := heap.Select(nil, rows, slices.Grow[[]value.Row])
		if ok1 != ok2 || len(got1) != len(want1) {
			t.Errorf("%s: Select kept %d (%v) from the arena, %d (%v) from the heap", c.src, len(got1), ok1, len(want1), ok2)
		}
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
		p := compileIn(pred, cols, env)
		for i := 0; i < b.N; i++ {
			sinkTruth, _ = p(row)
		}
	})
	b.Run("interpreted", func(b *testing.B) {
		// Bind the row into a reused map, then walk the AST: the
		// per-row loop Compile replaced, and what the oracle runs.
		e := *env
		e.Cols = make(map[string]value.Value, len(cols))
		for i := 0; i < b.N; i++ {
			for j, c := range cols {
				e.Cols[c] = row[j]
			}
			sinkTruth, _ = Truth(pred, &e)
		}
	})
}

var (
	sinkPred   Pred
	sinkFilter Filter
	sinkTruth  tvl.Truth
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
			p := compileIn(pred, cols, env)
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
