package bench

import (
	"fmt"
	"strings"

	"uniqopt/internal/catalog"
	"uniqopt/internal/ims"
	"uniqopt/internal/oodb"
	"uniqopt/internal/sql/ast"
	"uniqopt/internal/sql/parser"
	"uniqopt/internal/value"
	"uniqopt/internal/workload"
)

// E5 — IMS join → subquery (Example 10, §6.1): DL/I call counts for
// the join program vs the rewritten nested program, key-qualified
// (PNO) and non-key-qualified (OEM-PNO) variants.
func E5(sc Scale) *Table {
	t := &Table{
		ID:    "E5",
		Title: "IMS gateway (Example 10): DL/I calls, join program vs rewritten nested program",
		Columns: []string{"|SUPPLIER|", "fanout", "qual field", "join PARTS calls",
			"nested PARTS calls", "ratio", "join visits", "nested visits"},
	}
	// Part 1 — the headline halving: every supplier has the target
	// PNO, so the join program's second GNP per supplier always
	// returns GE.
	for _, p := range []struct {
		suppliers, fanout int
	}{
		{500, 5},
		{2000, 5},
		{2000, 20},
	} {
		size := sc.size(p.suppliers)
		cfg := workload.DefaultConfig()
		cfg.Suppliers = size
		cfg.PartsPerSupplier = p.fanout
		rel := mustDB(cfg)
		hdb, err := ims.FromRelational(rel)
		if err != nil {
			panic(err)
		}
		target := value.Int(3) // every supplier has PNO 3
		join := hdb.JoinStrategy("PNO", target)
		nested := hdb.NestedStrategy("PNO", target)
		if len(join.Output) != len(nested.Output) {
			panic("E5: strategies disagree")
		}
		jp := join.Stats.CallsBySegment["PARTS"]
		np := nested.Stats.CallsBySegment["PARTS"]
		t.AddRow(n(int64(size)), n(int64(p.fanout)), "PNO",
			n(jp), n(np), f(float64(jp)/float64(np)),
			n(join.Stats.SegmentsVisited), n(nested.Stats.SegmentsVisited))
	}
	// Part 2 — the non-key contrast of §6.1's closing paragraph: a
	// single deep twin chain probed mid-way. With a key-sequenced
	// qualification the join program's extra GNP stops after one twin;
	// with a non-key qualification (OEM-PNO) it must rescan the whole
	// remaining chain, so the rewrite saves nearly 2x the visits.
	for _, fanout := range []int{sc.size(200), sc.size(1000)} {
		hdb := skewedHierarchy(fanout)
		mid := int64(fanout / 2)
		for _, field := range []string{"PNO", "OEM-PNO"} {
			target := value.Int(mid)
			if field == "OEM-PNO" {
				target = value.Int(1000 + mid)
			}
			join := hdb.JoinStrategy(field, target)
			nested := hdb.NestedStrategy(field, target)
			if len(join.Output) != 1 || len(nested.Output) != 1 {
				panic("E5: skewed probe should match exactly one supplier")
			}
			jp := join.Stats.CallsBySegment["PARTS"]
			np := nested.Stats.CallsBySegment["PARTS"]
			t.AddRow("1", n(int64(fanout)), field,
				n(jp), n(np), f(float64(jp)/float64(np)),
				n(join.Stats.SegmentsVisited), n(nested.Stats.SegmentsVisited))
		}
	}
	t.Notes = append(t.Notes,
		"rows 1-3: PNO call ratio is exactly 2.00 — the paper's halving",
		"rows 4-7: one supplier, deep twin chain, probed mid-chain; the key-qualified join stops early (visits ≈ nested+1) while the OEM-qualified join rescans the chain (visits ≈ 2x) — §6.1's 'greater cost reduction'")
	return t
}

// skewedHierarchy builds a hierarchy with a single supplier carrying a
// deep twin chain: PNO 1..fanout, OEM-PNO 1000+PNO.
func skewedHierarchy(fanout int) *ims.Database {
	hdb := ims.NewDatabase(ims.Schema())
	root, err := hdb.InsertRoot(map[string]value.Value{
		"SNO": value.Int(1), "SNAME": value.String_("solo"),
		"SCITY": value.String_("Toronto"), "BUDGET": value.Int(1),
		"STATUS": value.String_("Active"),
	})
	if err != nil {
		panic(err)
	}
	for p := 1; p <= fanout; p++ {
		if _, err := hdb.InsertChild(root, "PARTS", map[string]value.Value{
			"PNO": value.Int(int64(p)), "PNAME": value.String_("p"),
			"OEM-PNO": value.Int(int64(1000 + p)), "COLOR": value.String_("RED"),
		}); err != nil {
			panic(err)
		}
	}
	return hdb
}

// E6 — OODB join → subquery (Example 11, §6.2): object fetches for
// the child-driven pointer-chasing strategy vs the rewritten
// parent-driven existence probing, across range selectivities.
func E6(sc Scale) *Table {
	t := &Table{
		ID:    "E6",
		Title: "OODB navigator (Example 11): object fetches, child-driven vs parent-driven",
		Columns: []string{"|SUPPLIER|", "range", "sel%", "child fetches",
			"parent fetches", "fetch ratio", "child ixent", "parent ixent"},
	}
	size := sc.size(2000)
	cfg := workload.DefaultConfig()
	cfg.Suppliers = size
	cfg.PartsPerSupplier = 5
	rel := mustDB(cfg)
	store, err := oodb.FromRelational(rel)
	if err != nil {
		panic(err)
	}
	for _, sel := range []float64{0.001, 0.01, 0.1, 0.5, 1.0} {
		width := int64(float64(size) * sel)
		if width < 1 {
			width = 1
		}
		lo, hi := value.Int(1), value.Int(width)
		store.ResetStats()
		cd, err := store.ChildDrivenJoin(value.Int(2), lo, hi)
		if err != nil {
			panic(err)
		}
		pd, err := store.ParentDrivenExists(value.Int(2), lo, hi)
		if err != nil {
			panic(err)
		}
		if len(cd.Output) != len(pd.Output) {
			panic("E6: strategies disagree")
		}
		ratio := float64(cd.Stats.Fetches) / float64(pd.Stats.Fetches)
		t.AddRow(n(int64(size)), fmt.Sprintf("1..%d", width), f(sel*100),
			n(cd.Stats.Fetches), n(pd.Stats.Fetches), f(ratio),
			n(cd.Stats.IndexEntries), n(pd.Stats.IndexEntries))
	}
	t.Notes = append(t.Notes,
		"expected shape: parent-driven fetch advantage is huge at low selectivity and shrinks toward 2x at 100%;",
		"its index-entry traffic grows with the range — the 'depending on the objects' selectivity' caveat of §6.2")
	return t
}

// buildWideCatalog constructs CREATE TABLE W (K INTEGER, C1..Cn
// INTEGER, PRIMARY KEY (K)) and the query SELECT W.C1 FROM W W —
// projecting a non-key so the exact checker has to enumerate the full
// domain space to find its witness.
func buildWideCatalog(cols int) (*catalog.Catalog, string) {
	var defs []string
	defs = append(defs, "K INTEGER")
	for i := 1; i <= cols; i++ {
		defs = append(defs, fmt.Sprintf("C%d INTEGER", i))
	}
	ddl := fmt.Sprintf("CREATE TABLE W (%s, PRIMARY KEY (K))", strings.Join(defs, ", "))
	st, err := parser.ParseStatement(ddl)
	if err != nil {
		panic(err)
	}
	c := catalog.New()
	if _, err := c.DefineFromAST(st.(*ast.CreateTable)); err != nil {
		panic(err)
	}
	return c, "SELECT W.C1 FROM W W"
}

// All runs every experiment at the given scale and returns the tables
// in order.
func All(sc Scale) []*Table {
	return []*Table{
		E1(sc, false),
		E2(sc),
		E3(sc),
		E4(sc),
		E5(sc),
		E6(sc),
		E7(sc),
		E8(sc, 0),
		E9(sc),
	}
}
