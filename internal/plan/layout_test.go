package plan

import (
	"reflect"
	"strings"
	"testing"

	"uniqopt/internal/engine"
	"uniqopt/internal/sql/parser"
	"uniqopt/internal/storage"
	"uniqopt/internal/value"
	"uniqopt/internal/workload"
)

// benchDB is the supplier schema with the three ordered indexes the
// repository benchmark deploys.
func benchDB(t testing.TB) *storage.DB {
	t.Helper()
	db := smallDB(t)
	for _, ix := range []struct {
		table, name string
		cols        []string
	}{
		{"SUPPLIER", "SUPPLIER_SNO", []string{"SNO"}},
		{"PARTS", "PARTS_SNO_PNO", []string{"SNO", "PNO"}},
		{"AGENTS", "AGENTS_SNO_ANO", []string{"SNO", "ANO"}},
	} {
		if _, err := db.MustTable(ix.table).CreateOrderedIndex(ix.name, ix.cols...); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// layouts walks a plan tree and reports, bottom-up and left to right,
// the columns every join emits (an existence probe emits nothing of its
// own and is skipped), and whether each projection is the identity over
// its child and sits directly on a join.
func layouts(t *testing.T, op operator) (cols []string, joins [][]string, projections []string) {
	t.Helper()
	emitted := func(e engine.Emit, left, right []string) []string {
		out := make([]string, len(e))
		for i, c := range e {
			if out[i] = left[c.Ord]; c.Right {
				out[i] = right[c.Ord]
			}
		}
		return out
	}
	switch o := op.(type) {
	case *accessOp:
		return o.cols, nil, nil
	case *joinOp:
		l, lj, lp := layouts(t, o.probe)
		r, rj, rp := layouts(t, o.inner)
		cols = emitted(o.join.Emit, l, r)
		return cols, append(append(lj, rj...), cols), append(lp, rp...)
	case *indexJoinOp:
		outer, joins, projections := layouts(t, o.outer)
		if o.probe.Semi {
			return outer, joins, projections
		}
		cols = emitted(o.probe.Emit, outer, o.probe.Cols)
		return cols, append(joins, cols), projections
	case *filterOp:
		return layouts(t, o.child)
	case *distinctOp:
		return layouts(t, o.child)
	case *projectOp:
		child, joins, projections := layouts(t, o.child)
		kind := "identity"
		for i, c := range o.proj.Idx {
			if c != i || len(o.proj.Idx) != len(child) {
				kind = "copies"
			}
		}
		switch o.child.(type) {
		case *joinOp, *indexJoinOp:
			kind += " over a join"
		}
		return o.proj.Cols, joins, append(projections, kind)
	case *setOp:
		l, lj, lp := layouts(t, o.l)
		_, rj, rp := layouts(t, o.r)
		return l, append(lj, rj...), append(lp, rp...)
	}
	t.Fatalf("unknown operator %T", op)
	return nil, nil, nil
}

// TestJoinLayouts pins what every join of the repository benchmark's
// read statements and of the paper's examples emits, against the live
// set listed by hand: the top join of a block exactly the projection, in
// its order, so that the projection above it is the identity; an earlier
// join what the projection reads of its prefix plus the keys still to be
// probed; a residual predicate's and an existence probe's columns
// carried behind the projection's; a block with a residual subquery at
// full width. All of it is decided by Compile: no statement runs.
func TestJoinLayouts(t *testing.T) {
	db := benchDB(t)
	rewriting := Options{ApplyRewrites: true}
	const (
		sCols  = "S.SNO S.SNAME S.SCITY S.BUDGET S.STATUS"
		ex1    = "S.SNO P.PNO P.PNAME"
		ex2    = "S.SNAME P.PNO P.PNAME"
		ex3    = "S.SNO S.SNAME P.PNO P.PNAME"
		chain3 = `SELECT ALL A.SNO, A.ANO, P.PNO, S.SNAME FROM AGENTS A, PARTS P, SUPPLIER S
			WHERE A.SNO = P.SNO AND P.SNO = S.SNO AND S.SNO = :N`
		keylessChain = `SELECT ALL A.SNO, A.ANO, P.PNO, S.SNAME FROM AGENTS A, PARTS P, SUPPLIER S
			WHERE A.SNO = P.SNO AND P.SNO = S.SNO AND P.OEM-PNO <> 1065 AND S.SCITY = 'Toronto'`
	)
	paper := workload.PaperQueries
	cases := []struct {
		name, sql   string
		opts        Options
		joins       []string // each join's emitted columns, space-separated, bottom-up
		projections string   // the projections as layouts reports them, comma-separated
	}{
		// embedded_analytic.
		{"filter_scan", `SELECT ALL P.SNO, P.PNO, P.OEM-PNO FROM PARTS P
			WHERE P.COLOR <> 'RED' AND P.PNO > :K AND P.OEM-PNO < :M`, rewriting, nil, "copies"},
		{"ex1_elim", `SELECT DISTINCT S.SNO, P.PNO, P.PNAME FROM SUPPLIER S, PARTS P
			WHERE S.SNO = P.SNO AND P.COLOR = 'RED' AND P.PNO >= :K`, rewriting, []string{ex1}, "identity over a join"},
		{"ex2_keep", `SELECT DISTINCT S.SNAME, P.PNO, P.PNAME FROM SUPPLIER S, PARTS P
			WHERE S.SNO = P.SNO AND P.COLOR = 'RED' AND P.PNO >= :K`, rewriting, []string{ex2}, "identity over a join"},
		{"ex8_exists", `SELECT ALL S.SNO, S.SNAME FROM SUPPLIER S
			WHERE EXISTS (SELECT * FROM PARTS P WHERE P.SNO = S.SNO AND P.COLOR = 'RED' AND P.PNO >= :K)`,
			rewriting, nil, "copies over a join"},
		{"ex9_intersect", `SELECT ALL S.SNO FROM SUPPLIER S WHERE S.SCITY = :C AND S.BUDGET > :B
			INTERSECT
			SELECT ALL A.SNO FROM AGENTS A WHERE A.ACITY = :C1 OR A.ACITY = :C2`, rewriting, nil, "copies over a join"},
		{"range_join", `SELECT ALL S.SNO, S.SNAME, S.SCITY, S.BUDGET, S.STATUS FROM SUPPLIER S, PARTS P
			WHERE S.SNO BETWEEN :L AND :H AND S.SNO = P.SNO AND P.PNO = :PARTNO`, rewriting, []string{sCols}, "identity over a join"},
		// The one earlier join: what the projection reads of S and P, and
		// P.SNO, which the next join probes A's index with.
		{"chain3", chain3, rewriting, []string{"S.SNAME P.SNO P.PNO", "A.SNO A.ANO P.PNO S.SNAME"}, "identity over a join"},
		// wire_oltp.
		{"point", `SELECT ALL S.SNO, S.SNAME, S.SCITY, S.BUDGET, S.STATUS FROM SUPPLIER S WHERE S.SNO = :N`,
			rewriting, nil, "identity"},
		{"parts_of", paper["example3"], rewriting, []string{ex3}, "identity over a join"},
		{"distinct_elim", paper["example4"], rewriting, []string{ex3}, "identity over a join"},
		{"exists_probe", `SELECT ALL S.SNO, S.SNAME FROM SUPPLIER S
			WHERE S.SNO = :N AND EXISTS (SELECT * FROM PARTS P WHERE S.SNO = P.SNO AND P.PNO = :K)`,
			rewriting, []string{"S.SNO S.SNAME"}, "identity over a join"},
		// The paper's examples (3 and 4 are parts_of and distinct_elim).
		{"example1", paper["example1"], rewriting, []string{ex1}, "identity over a join"},
		{"example2", paper["example2"], rewriting, []string{ex2}, "identity over a join"},
		{"example6", paper["example6"], rewriting, []string{"S.SNO P.PNO P.PNAME P.COLOR"}, "identity over a join"},
		{"example7", paper["example7"], rewriting, []string{"S.SNO S.SNAME"}, "identity over a join"},
		{"example8", paper["example8"], rewriting, nil, "copies over a join"},
		{"example9", paper["example9"], rewriting, nil, "copies over a join"},
		{"example10", paper["example10"], rewriting, []string{sCols}, "identity over a join"},
		{"example11", paper["example11"], rewriting, []string{sCols}, "identity over a join"},
		// As written, a subquery stays in the residual predicate of its
		// block, which has no join to narrow; the set operation's operands
		// are single tables.
		{"example7 as written", paper["example7"], Options{}, nil, "copies"},
		{"example9 as written", paper["example9"], Options{}, nil, "copies, copies"},
		// Shapes the benchmark does not have. A cross-table residual and an
		// existence probe's key ride behind the projection's columns, and
		// the projection copies; a column projected twice is emitted twice;
		// in a chain with no constant-bound key, started at the filtered end
		// and never flipped, the earlier join keeps P.SNO for A's probe; a
		// residual subquery's correlation references ride like any other
		// residual column.
		{"residual", `SELECT ALL S.SNAME, P.PNAME FROM SUPPLIER S, PARTS P WHERE S.SNO = P.SNO AND S.BUDGET < P.PNO`,
			rewriting, []string{"S.SNAME P.PNAME S.BUDGET P.PNO"}, "copies"},
		{"probe key", `SELECT DISTINCT S.SNAME, P.PNAME FROM SUPPLIER S, PARTS P, AGENTS A
			WHERE S.SNO = P.SNO AND A.SNO = S.SNO`, rewriting, []string{"S.SNAME P.PNAME S.SNO"}, "copies over a join"},
		{"repeat", `SELECT ALL S.SNO, S.SNO, P.PNO, S.SNO FROM SUPPLIER S, PARTS P WHERE S.SNO = P.SNO`,
			rewriting, []string{"S.SNO S.SNO P.PNO S.SNO"}, "identity over a join"},
		{"chain, no key bound", keylessChain, rewriting,
			[]string{"S.SNAME P.SNO P.PNO", "A.SNO A.ANO P.PNO S.SNAME"}, "identity over a join"},
		{"subquery", `SELECT ALL P.PNO, S.SNAME FROM SUPPLIER S, PARTS P
			WHERE S.SNO = P.SNO AND EXISTS (SELECT * FROM AGENTS A WHERE A.SNO = S.SNO AND A.ANO < P.PNO)`,
			Options{}, []string{"P.PNO S.SNAME S.SNO"}, "copies"},
	}
	for _, c := range cases {
		q, err := parser.ParseQuery(c.sql)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		compiled, err := NewPlanner(db, c.opts).Compile(q)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		_, joins, projections := layouts(t, compiled.root)
		var got []string
		for _, j := range joins {
			got = append(got, strings.Join(j, " "))
		}
		if !reflect.DeepEqual(got, c.joins) {
			t.Errorf("%s: joins emit\n  %q\nwant the live sets\n  %q", c.name, got, c.joins)
		}
		if got := strings.Join(projections, ", "); got != c.projections {
			t.Errorf("%s: projections are %q, want %q", c.name, got, c.projections)
		}
	}
}

// TestJoinLayoutsRunAsTheReference executes the layout shapes with and
// without the rewrites and holds each to the oracle, which knows nothing
// of layouts; an index join whose key's host variable is left unbound
// renders, plan-only, as itself, and refuses to run. (Row order against the parent commit is pinned by
// the layout_* row goldens of the root package.)
func TestJoinLayoutsRunAsTheReference(t *testing.T) {
	db := benchDB(t)
	hosts := map[string]value.Value{"N": value.Int(7), "K": value.Int(2), "PARTNO": value.Int(2),
		"L": value.Int(5), "H": value.Int(20)}
	for _, sql := range []string{
		`SELECT ALL S.SNO, S.SNO, P.PNO, S.SNO FROM SUPPLIER S, PARTS P WHERE S.SNO = P.SNO AND P.PNO >= :K`,
		`SELECT ALL S.SNAME, P.PNAME FROM SUPPLIER S, PARTS P WHERE S.SNO = P.SNO AND S.BUDGET < P.PNO`,
		`SELECT DISTINCT S.SNAME, P.PNAME FROM SUPPLIER S, PARTS P, AGENTS A WHERE S.SNO = P.SNO AND A.SNO = S.SNO`,
		`SELECT ALL P.PNO, S.SNAME FROM SUPPLIER S, PARTS P
			WHERE S.SNO = P.SNO AND EXISTS (SELECT * FROM AGENTS A WHERE A.SNO = S.SNO AND A.ANO < P.PNO)`,
		`SELECT ALL S.SNO, S.SNAME, P.PNAME FROM SUPPLIER S, PARTS P
			WHERE S.SNO BETWEEN :L AND :H AND S.SNO = P.SNO AND P.PNO = :PARTNO`,
		`SELECT ALL P.PNAME, A.ANAME FROM SUPPLIER S, PARTS P, AGENTS A WHERE S.SNO = :N AND S.SNO < 99`,
		`SELECT ALL A.SNO, A.ANO, P.PNO, S.SNAME FROM AGENTS A, PARTS P, SUPPLIER S
			WHERE A.SNO = P.SNO AND P.SNO = S.SNO AND P.OEM-PNO <> 1065 AND S.SCITY = 'Toronto'`,
	} {
		q, err := parser.ParseQuery(sql)
		if err != nil {
			t.Fatal(err)
		}
		want, err := reference(db, q, hosts)
		if err != nil {
			t.Fatalf("reference %q: %v", sql, err)
		}
		for _, opts := range []Options{{}, {ApplyRewrites: true}} {
			got, err := NewPlanner(db, opts).Run(q, byName(hosts))
			if err != nil {
				t.Fatalf("%+v %q: %v", opts, sql, err)
			}
			if !engine.MultisetEqual(want, got.Rel) {
				t.Errorf("%+v %q: %d rows, the oracle has %d", opts, sql, got.Rel.Len(), want.Len())
			}
		}
	}
	// An unbound key constant is refused before anything runs; rendered
	// plan-only, the index join shows the variable as written.
	q, err := parser.ParseQuery(`SELECT ALL S.SNO, S.SNAME, P.PNAME FROM SUPPLIER S, PARTS P
		WHERE S.SNO BETWEEN :L AND :H AND S.SNO = P.SNO AND P.PNO = :PARTNO`)
	if err != nil {
		t.Fatal(err)
	}
	delete(hosts, "PARTNO")
	res, err := NewPlanner(db, Options{ApplyRewrites: true}).explained(q, hosts)
	if err == nil || err.Error() != "plan: unbound host variable :PARTNO" {
		t.Fatalf("unbound key constant: %v, %v", res, err)
	}
	compiled, err := NewPlanner(db, Options{ApplyRewrites: true}).Compile(q)
	if err != nil {
		t.Fatal(err)
	}
	join := compiled.Render(nil).Children[0]
	if join.Op != "IndexJoin" || join.Detail != "P via PARTS_SNO_PNO = (S.SNO, :PARTNO)" {
		t.Errorf("unbound key constant renders %s(%s), want the IndexJoin spelling :PARTNO", join.Op, join.Detail)
	}
}
