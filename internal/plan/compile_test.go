package plan

import (
	"errors"
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"uniqopt/internal/core"
	"uniqopt/internal/engine"
	"uniqopt/internal/sql/ast"
	"uniqopt/internal/sql/lexer"
	"uniqopt/internal/sql/parser"
	"uniqopt/internal/sql/token"
	"uniqopt/internal/value"
)

// describe renders everything a Compiled decided — the rewrites and,
// operator by operator, the whole plan tree: the join order and build
// sides (its shape), access paths, pushed and residual filters, key and
// projection ordinals, output columns and notes — with every expression
// spliced for the literal vector vals; a filter's subquery blocks follow
// its child, in the order the predicate names them. Two Compiled values
// that describe identically execute identically.
func describe(c *Compiled, vals []value.Value) string {
	var sb strings.Builder
	sql := func(e ast.Expr) string {
		if e == nil {
			return "-"
		}
		return newText(e.SQL()).in(vals)
	}
	konst := func(k *constant) string {
		if k == nil {
			return "-"
		}
		return sql(k.expr)
	}
	for _, r := range c.rewrites {
		fmt.Fprintf(&sb, "rewrite %s | %s | %s | %s\n", r.ap.Rule, r.texts[0].in(vals), r.texts[1].in(vals), r.texts[2].in(vals))
	}
	var dump func(op operator, depth int)
	dump = func(op operator, depth int) {
		sb.WriteString(strings.Repeat("  ", depth))
		var ns notes
		var children []operator
		switch o := op.(type) {
		case *accessOp:
			ns = o.notes
			fmt.Fprintf(&sb, "access %s cols=%v rest=%q/%s", o.scan, o.cols, o.rest.text.in(vals), sql(o.rest.pred))
			if ap := o.path; ap != nil {
				eq := make([]string, len(ap.eq))
				for i, k := range ap.eq {
					eq[i] = konst(k)
				}
				fmt.Fprintf(&sb, " path=%s.%s eq=%v lo=%s%v hi=%s%v consumed=%v", ap.corr, ap.ix.Name,
					eq, konst(ap.lo), ap.loStrict, konst(ap.hi), ap.hiStrict, ap.consumed)
			}
		case *joinOp:
			ns, children = o.notes, []operator{o.probe, o.inner}
			fmt.Fprintf(&sb, "join %q pi=%v bi=%v emit=%v cols=%v", o.detail, o.join.Pi, o.join.Bi, o.join.Emit, o.join.Cols())
		case *indexJoinOp:
			ns, children = o.notes, []operator{o.outer}
			key := make([]string, len(o.consts))
			for i, k := range o.consts {
				key[i] = fmt.Sprintf("%d/%s", o.probe.Key[i], konst(k))
			}
			fmt.Fprintf(&sb, "indexjoin %q %s.%s key=%v rest=%q/%s semi=%v emit=%v", o.detail.in(vals),
				o.probe.Tbl.Schema.Name, o.probe.Ix.Name, key, o.rest.text.in(vals), sql(o.rest.pred), o.probe.Semi, o.probe.Emit)
		case *filterOp:
			ns, children = o.notes, []operator{o.child}
			for _, sub := range ast.Subqueries(o.f.pred) {
				children = append(children, o.subs[sub].op)
			}
			fmt.Fprintf(&sb, "filter %q/%s subqueries=%d", o.f.text.in(vals), sql(o.f.pred), len(o.subs))
		case *projectOp:
			ns, children = o.notes, []operator{o.child}
			fmt.Fprintf(&sb, "project %q cols=%v idx=%v", o.detail, o.proj.Cols, o.proj.Idx)
		case *distinctOp:
			ns, children = o.notes, []operator{o.child}
			fmt.Fprintf(&sb, "distinct sort=%v", o.sort)
		case *setOp:
			ns, children = o.notes, []operator{o.l, o.r}
			fmt.Fprintf(&sb, "setop except=%v all=%v", o.except, o.all)
		default:
			fmt.Fprintf(&sb, "unknown operator %T", op)
		}
		for _, n := range ns {
			fmt.Fprintf(&sb, " note=%q", n.in(vals))
		}
		sb.WriteByte('\n')
		for _, c := range children {
			dump(c, depth+1)
		}
	}
	dump(c.root, 0)
	return sb.String()
}

// liftedVals is sql's literal vector, converted the way the database
// does.
func liftedVals(t *testing.T, sql string) []value.Value {
	t.Helper()
	_, lits, err := lexer.Shape(sql)
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]value.Value, len(lits))
	for i, l := range lits {
		v := value.String_(l.Text)
		if l.Kind == token.Number {
			n, err := strconv.ParseInt(l.Text, 10, 64)
			if err != nil {
				t.Fatal(err)
			}
			v = value.Int(n)
		}
		vals[i] = v
	}
	return vals
}

// TestCompileReadsNoLiteralValue pins the property literal lifting
// rests on: no analysis, rewrite or planning step reads a query
// constant's value. For each shape, the statement compiled from its
// lifted form and spliced with a literal vector is, decision for
// decision, the statement compiled from the text that spells those
// literals — for two different vectors, with every analyzer extension
// on (CHECK import among them, over a catalog that has CHECKs), so one
// verdict, one rewrite list and one plan tree serve every vector.
func TestCompileReadsNoLiteralValue(t *testing.T) {
	db := smallDB(t)
	if _, err := db.MustTable("PARTS").CreateOrderedIndex("P_SNO", "SNO"); err != nil {
		t.Fatal(err)
	}
	shapes := []struct{ format, v1, v2 string }{
		{`SELECT DISTINCT S.SNO, P.PNO, P.PNAME FROM SUPPLIER S, PARTS P
			WHERE S.SNO = P.SNO AND P.COLOR = %s AND P.OEM-PNO < %s`, "'RED' 3000", "'BLUE' 17"},
		{`SELECT DISTINCT S.SNO, SNAME, P.PNO, PNAME FROM SUPPLIER S, PARTS P
			WHERE P.SNO = %s AND S.SNO = P.SNO AND P.OEM-PNO > %s`, "3 1000", "39 0"},
		{`SELECT ALL S.SNO, S.SNAME FROM SUPPLIER S WHERE S.SNAME = %s AND S.BUDGET < %s AND
			EXISTS (SELECT * FROM PARTS P WHERE S.SNO = P.SNO AND P.PNO = %s)`, "'Smith' 500 2", "'it''s' 1 1"},
		{`SELECT ALL S.SNO FROM SUPPLIER S WHERE S.SCITY = %s AND S.BUDGET > %s
			INTERSECT SELECT ALL A.SNO FROM AGENTS A WHERE A.ACITY = %s OR A.ACITY = %s`,
			"'Toronto' 10 'Ottawa' 'Hull'", "'Hull' 999 'Hull' 'Hull'"},
		{`SELECT DISTINCT S.SNO, P.PNO FROM SUPPLIER S, PARTS P
			WHERE S.SNO = P.SNO AND (P.COLOR = %s AND P.OEM-PNO < %s OR P.PNO = %s AND P.OEM-PNO > %s)`,
			"'RED' 100 1 100", "'RED' 100 100 1"},
		{`SELECT ALL A.SNO, A.ANO, P.PNO, S.SNAME FROM AGENTS A, PARTS P, SUPPLIER S
			WHERE A.SNO = P.SNO AND P.SNO = S.SNO AND S.SNO = %s AND P.OEM-PNO <> %s`, "7 7", "8 9"},
		{`SELECT S.SNO FROM SUPPLIER S, PARTS P WHERE S.SNO = P.SNO AND P.SNO BETWEEN %s AND %s
			AND S.SNO IN (%s, %s) AND P.PNO >= %s AND P.PNO <= %s`, "10 20 11 12 1 3", "20 10 0 0 3 1"},
		{`SELECT DISTINCT P.PNAME FROM PARTS P WHERE P.SNO = %s AND P.PNO = %s AND P.SNO = %s`, "1 1 1", "1 2 3"},
	}
	opts := Options{ApplyRewrites: true,
		Core: core.Options{UseKeyFDs: true, BindIsNull: true, UseCheckConstraints: true}}
	p := NewPlanner(db, opts)
	compile := func(st ast.Statement, err error) *Compiled {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		c, err := p.Compile(st.(ast.Query))
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	verdict := func(q ast.Query) string {
		t.Helper()
		v, err := p.An.AnalyzeQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprint(v.Unique, v.Bound, v.KeysUsed, v.DerivedKeys, v.MissingTable, v.Dropped, v.Trace.Lines())
	}
	for i, sh := range shapes {
		text := func(vector string) string {
			args := []any{}
			for _, a := range strings.Fields(vector) {
				args = append(args, a)
			}
			return fmt.Sprintf(sh.format, args...)
		}
		sql1, sql2 := text(sh.v1), text(sh.v2)
		lifted := compile(parser.ParseLifted(sql1))
		if again := compile(parser.ParseLifted(sql2)); !reflect.DeepEqual(describe(lifted, nil), describe(again, nil)) {
			t.Errorf("shape %d: the lifted statement depends on the vector it was lifted from", i)
		}
		wantVerdict := verdict(lifted.Query)
		for _, sql := range []string{sql1, sql2} {
			literal := compile(parser.ParseStatement(sql))
			if got, want := describe(lifted, liftedVals(t, sql)), describe(literal, nil); got != want {
				t.Errorf("shape %d: lifted statement spliced with its literals differs from the literal statement\n%s\n--- lifted, spliced\n%s--- literal\n%s", i, sql, got, want)
			}
			if got := verdict(literal.Query); got != wantVerdict {
				t.Errorf("shape %d: verdict reads a literal\n--- lifted %s\n--- literal %s", i, wantVerdict, got)
			}
		}
	}
}

// TestTextSplicing: only :$digits is a slot, $n the vector's n-th; every
// slot is filled in one pass, so a literal that itself spells a lifted
// name is inert, and a slot past the vector keeps its spelling.
func TestTextSplicing(t *testing.T) {
	vals := make([]value.Value, 12)
	vals[0], vals[1], vals[11] = value.Int(7), value.String_("it's :$1"), value.String_("twelve")
	for in, want := range map[string]string{
		"":                                "",
		"S.SNO = P.SNO":                   "S.SNO = P.SNO",
		"S.SNO = :$1":                     "S.SNO = 7",
		":$1:$2":                          "7'it''s :$1'",
		"A = :$12 AND B = :$1 AND C = :N": "A = 'twelve' AND B = 7 AND C = :N",
		"odd :$ and :$x stay, :$13 too":   "odd :$ and :$x stay, :$13 too",
	} {
		if got := newText(in).in(vals); got != want {
			t.Errorf("newText(%q).in = %q, want %q", in, got, want)
		}
	}
	if got := (text{}).in(vals); got != "" {
		t.Errorf("zero text renders %q", got)
	}
	err := unlift(fmt.Errorf("wrapped: %w", engine.ErrBudgetExceeded), vals)
	if err.Error() != "wrapped: "+engine.ErrBudgetExceeded.Error() {
		t.Errorf("an error without lifted names was rewritten: %v", err)
	}
	inner := fmt.Errorf("eval: cannot compare in S.SNO = :$2: %w", engine.ErrBudgetExceeded)
	err = unlift(inner, vals)
	if err.Error() != "eval: cannot compare in S.SNO = 'it''s :$1': "+engine.ErrBudgetExceeded.Error() {
		t.Errorf("unlifted error text = %q", err)
	}
	if !errors.Is(err, engine.ErrBudgetExceeded) {
		t.Errorf("unlifted error lost its cause: %v", err)
	}
}
