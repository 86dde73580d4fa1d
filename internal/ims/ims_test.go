package ims

import (
	"strings"
	"testing"

	"uniqopt/internal/catalog"
	"uniqopt/internal/sql/ast"
	"uniqopt/internal/sql/parser"
	"uniqopt/internal/storage"
	"uniqopt/internal/value"
	"uniqopt/internal/workload"
)

// buildDB creates a hierarchy with n suppliers, each with parts
// PNO 1..fanout. Part PNO=target exists for every supplier iff
// withTarget; OEM-PNO is 1000*SNO+PNO.
func buildDB(t testing.TB, n, fanout int) *Database {
	t.Helper()
	db := NewDatabase(Schema())
	for s := 1; s <= n; s++ {
		root, err := db.InsertRoot(map[string]value.Value{
			"SNO": value.Int(int64(s)), "SNAME": value.String_("n"),
			"SCITY": value.String_("Toronto"), "BUDGET": value.Int(1),
			"STATUS": value.String_("Active"),
		})
		if err != nil {
			t.Fatal(err)
		}
		for p := 1; p <= fanout; p++ {
			if _, err := db.InsertChild(root, "PARTS", map[string]value.Value{
				"PNO": value.Int(int64(p)), "PNAME": value.String_("p"),
				"OEM-PNO": value.Int(int64(1000*s + p)), "COLOR": value.String_("RED"),
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	return db
}

func TestInsertValidation(t *testing.T) {
	db := NewDatabase(Schema())
	root, err := db.InsertRoot(map[string]value.Value{"SNO": value.Int(1)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.InsertRoot(map[string]value.Value{"SNO": value.Int(1)}); err == nil {
		t.Error("duplicate root key should fail")
	}
	if _, err := db.InsertRoot(map[string]value.Value{"SNO": value.Null}); err == nil {
		t.Error("NULL root key should fail")
	}
	if _, err := db.InsertChild(root, "NOPE", nil); err == nil {
		t.Error("unknown child type should fail")
	}
	if _, err := db.InsertChild(root, "PARTS", map[string]value.Value{"PNO": value.Int(1)}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.InsertChild(root, "PARTS", map[string]value.Value{"PNO": value.Int(1)}); err == nil {
		t.Error("duplicate child key under one parent should fail")
	}
}

func TestRootsKeySequenced(t *testing.T) {
	db := NewDatabase(Schema())
	for _, k := range []int64{5, 1, 3, 2, 4} {
		if _, err := db.InsertRoot(map[string]value.Value{"SNO": value.Int(k)}); err != nil {
			t.Fatal(err)
		}
	}
	for i, seg := range db.Roots() {
		if seg.Key().AsInt() != int64(i+1) {
			t.Fatalf("roots not key-sequenced: %v at %d", seg.Key(), i)
		}
	}
	if db.FindRoot(value.Int(3)) == nil || db.FindRoot(value.Int(9)) != nil {
		t.Error("FindRoot wrong")
	}
}

func TestGUGNTraversal(t *testing.T) {
	db := buildDB(t, 3, 2)
	pcb := db.NewPCB()
	seg, st := pcb.GU("SUPPLIER")
	if st != StatusOK || seg.Key().AsInt() != 1 {
		t.Fatalf("GU = %v, %q", seg, st)
	}
	seg, st = pcb.GN("SUPPLIER")
	if st != StatusOK || seg.Key().AsInt() != 2 {
		t.Fatalf("GN = %v, %q", seg, st)
	}
	_, _ = pcb.GN("SUPPLIER")
	_, st = pcb.GN("SUPPLIER")
	if st != StatusGB {
		t.Errorf("end of database should be GB, got %q", st)
	}
	if pcb.Stats.GU != 1 || pcb.Stats.GN != 3 {
		t.Errorf("stats = %s", pcb.Stats.String())
	}
}

func TestGUKeyUsesIndex(t *testing.T) {
	db := buildDB(t, 100, 1)
	pcb := db.NewPCB()
	seg, st := pcb.GU("SUPPLIER", Qual{Field: "SNO", Op: EQ, Value: value.Int(42)})
	if st != StatusOK || seg.Key().AsInt() != 42 {
		t.Fatalf("GU by key = %v, %q", seg, st)
	}
	if pcb.Stats.IndexLookups != 1 || pcb.Stats.SegmentsVisited != 0 {
		t.Errorf("index path not taken: %s", pcb.Stats.String())
	}
}

func TestGNPTwinChain(t *testing.T) {
	db := buildDB(t, 1, 4)
	pcb := db.NewPCB()
	if _, st := pcb.GU("SUPPLIER"); st != StatusOK {
		t.Fatal("GU failed")
	}
	var keys []int64
	for {
		seg, st := pcb.GNP("PARTS")
		if st != StatusOK {
			break
		}
		keys = append(keys, seg.Key().AsInt())
	}
	if len(keys) != 4 || keys[0] != 1 || keys[3] != 4 {
		t.Errorf("twin chain = %v", keys)
	}
	// GNP before any GU fails.
	pcb2 := db.NewPCB()
	if _, st := pcb2.GNP("PARTS"); st != StatusGE {
		t.Error("GNP without parentage should be GE")
	}
}

func TestGNPKeyQualifiedEarlyStop(t *testing.T) {
	db := buildDB(t, 1, 10)
	pcb := db.NewPCB()
	pcb.GU("SUPPLIER")
	seg, st := pcb.GNP("PARTS", Qual{Field: "PNO", Op: EQ, Value: value.Int(3)})
	if st != StatusOK || seg.Key().AsInt() != 3 {
		t.Fatalf("GNP = %v, %q", seg, st)
	}
	// Visited the root (unqualified GU) plus exactly 3 twins (keys
	// 1, 2, 3).
	if pcb.Stats.SegmentsVisited != 4 {
		t.Errorf("visited = %d, want 4", pcb.Stats.SegmentsVisited)
	}
	// Second qualified GNP: key-sequenced chain, next twin has key 4 >
	// 3 → GE after visiting exactly one more segment.
	_, st = pcb.GNP("PARTS", Qual{Field: "PNO", Op: EQ, Value: value.Int(3)})
	if st != StatusGE {
		t.Errorf("second GNP = %q, want GE", st)
	}
	if pcb.Stats.SegmentsVisited != 5 {
		t.Errorf("visited = %d, want 5 (early stop)", pcb.Stats.SegmentsVisited)
	}
}

func TestGNPNonKeyScansAll(t *testing.T) {
	db := buildDB(t, 1, 10)
	pcb := db.NewPCB()
	pcb.GU("SUPPLIER")
	// OEM-PNO = 1003 is the third twin, but OEM-PNO is not the
	// sequence field: after the match, the follow-up scan must visit
	// all remaining twins.
	seg, st := pcb.GNP("PARTS", Qual{Field: "OEM-PNO", Op: EQ, Value: value.Int(1003)})
	if st != StatusOK || seg.Get("OEM-PNO").AsInt() != 1003 {
		t.Fatalf("GNP = %v, %q", seg, st)
	}
	if pcb.Stats.SegmentsVisited != 4 { // root + 3 twins
		t.Errorf("visited = %d, want 4", pcb.Stats.SegmentsVisited)
	}
	_, st = pcb.GNP("PARTS", Qual{Field: "OEM-PNO", Op: EQ, Value: value.Int(1003)})
	if st != StatusGE {
		t.Errorf("follow-up = %q", st)
	}
	if pcb.Stats.SegmentsVisited != 11 { // root + all 10 twins
		t.Errorf("visited = %d, want 11 (no early stop on non-key field)", pcb.Stats.SegmentsVisited)
	}
}

// Example 10's headline claim: when every supplier has the target
// part, the nested strategy issues exactly half the GNP calls against
// PARTS that the join strategy does.
func TestExample10HalvesPartsCalls(t *testing.T) {
	db := buildDB(t, 50, 5)
	target := value.Int(3) // every supplier has PNO 3
	join := db.JoinStrategy("PNO", target)
	nested := db.NestedStrategy("PNO", target)
	if len(join.Output) != 50 || len(nested.Output) != 50 {
		t.Fatalf("outputs: join=%d nested=%d, want 50", len(join.Output), len(nested.Output))
	}
	jp := join.Stats.CallsBySegment["PARTS"]
	np := nested.Stats.CallsBySegment["PARTS"]
	if jp != 100 || np != 50 {
		t.Errorf("PARTS calls: join=%d nested=%d, want 100 and 50 (the paper's halving)", jp, np)
	}
	// Same SUPPLIER call counts in both strategies.
	if join.Stats.GU != nested.Stats.GU || join.Stats.GN != nested.Stats.GN {
		t.Error("supplier traversal should be identical")
	}
}

// The OEM-PNO variant: non-key qualification makes the join strategy
// scan every twin chain to the end, so the rewrite saves more than
// half the segment visits.
func TestExample10NonKeySavesMore(t *testing.T) {
	db := buildDB(t, 50, 8)
	// Supplier s has OEM 1000*s+4 on its 4th twin.
	join := db.JoinStrategy("OEM-PNO", value.Int(1004))
	nested := db.NestedStrategy("OEM-PNO", value.Int(1004))
	if len(join.Output) != 1 || len(nested.Output) != 1 {
		t.Fatalf("outputs: join=%d nested=%d, want 1", len(join.Output), len(nested.Output))
	}
	if nested.Stats.SegmentsVisited >= join.Stats.SegmentsVisited {
		t.Errorf("nested (%d visits) should beat join (%d visits)",
			nested.Stats.SegmentsVisited, join.Stats.SegmentsVisited)
	}
}

// Both strategies must agree with each other on arbitrary data (they
// compute the same query).
func TestStrategiesEquivalentOnWorkload(t *testing.T) {
	cfg := workload.DefaultConfig()
	cfg.Suppliers = 60
	cfg.PartsPerSupplier = 7
	rel, err := workload.NewDB(cfg)
	if err != nil {
		t.Fatal(err)
	}
	db, err := FromRelational(rel)
	if err != nil {
		t.Fatal(err)
	}
	for _, pno := range []int64{1, 4, 7, 99} {
		join := db.JoinStrategy("PNO", value.Int(pno))
		nested := db.NestedStrategy("PNO", value.Int(pno))
		if len(join.Output) != len(nested.Output) {
			t.Fatalf("PNO=%d: join=%d nested=%d rows", pno, len(join.Output), len(nested.Output))
		}
		for i := range join.Output {
			if join.Output[i] != nested.Output[i] {
				t.Fatalf("PNO=%d: row %d differs", pno, i)
			}
		}
		if nested.Stats.CallsBySegment["PARTS"] > join.Stats.CallsBySegment["PARTS"] {
			t.Errorf("PNO=%d: nested issued more PARTS calls", pno)
		}
	}
}

func TestRangeStrategy(t *testing.T) {
	db := buildDB(t, 30, 3)
	lo, hi := value.Int(10), value.Int(20)
	join := db.JoinStrategyRange(lo, hi, "PNO", value.Int(2), false)
	nested := db.JoinStrategyRange(lo, hi, "PNO", value.Int(2), true)
	if len(join.Output) != 11 || len(nested.Output) != 11 {
		t.Fatalf("outputs: join=%d nested=%d, want 11 (SNO 10..20)", len(join.Output), len(nested.Output))
	}
	if nested.Stats.Total() >= join.Stats.Total() {
		t.Errorf("nested total calls (%d) should beat join (%d)",
			nested.Stats.Total(), join.Stats.Total())
	}
}

func TestFromRelationalRejectsOrphans(t *testing.T) {
	// The workload schema declares PARTS.SNO → SUPPLIER(SNO), so the
	// storage layer already rejects the orphan insert...
	cfg := workload.DefaultConfig()
	cfg.Suppliers = 3
	rel, err := workload.NewDB(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := rel.Insert("PARTS", []value.Value{
		value.Int(99), value.Int(1), value.String_("x"), value.Int(1), value.String_("RED"),
	}); err == nil {
		t.Fatal("storage should reject the orphan via the FOREIGN KEY")
	}
	// ...but FromRelational must also defend itself when the source
	// schema declares no inclusion dependency.
	c := catalog.New()
	for _, ddl := range []string{
		`CREATE TABLE SUPPLIER (SNO INTEGER, SNAME VARCHAR, SCITY VARCHAR,
			BUDGET INTEGER, STATUS VARCHAR, PRIMARY KEY (SNO))`,
		`CREATE TABLE PARTS (SNO INTEGER, PNO INTEGER, PNAME VARCHAR,
			OEM-PNO INTEGER, COLOR VARCHAR, PRIMARY KEY (SNO, PNO))`,
	} {
		st, err := parser.ParseStatement(ddl)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.DefineFromAST(st.(*ast.CreateTable)); err != nil {
			t.Fatal(err)
		}
	}
	bare := storage.NewDB(c)
	if err := bare.Insert("PARTS", []value.Value{
		value.Int(99), value.Int(1), value.String_("x"), value.Int(1), value.String_("RED"),
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := FromRelational(bare); err == nil {
		t.Error("orphan PARTS row should be rejected by the loader")
	}
}

// Round trip: relational → HIDAM → relational preserves every row, and
// the extraction's DL/I cost is visible (the post-processing layer's
// "increased cost" of §6.1).
func TestRelationalRoundTrip(t *testing.T) {
	cfg := workload.DefaultConfig()
	cfg.Suppliers = 40
	cfg.PartsPerSupplier = 3
	src, err := workload.NewDB(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hdb, err := FromRelational(src)
	if err != nil {
		t.Fatal(err)
	}
	dst := storage.NewDB(workload.BenchCatalog())
	stats, err := hdb.ToRelational(dst)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"SUPPLIER", "PARTS", "AGENTS"} {
		a, b := src.MustTable(name), dst.MustTable(name)
		if a.Len() != b.Len() {
			t.Fatalf("%s: %d vs %d rows", name, a.Len(), b.Len())
		}
		// Every source row exists in the destination (by primary key):
		// the destination refuses it again as a repeat of its key.
		for i := 0; i < a.Len(); i++ {
			row := a.Row(i)
			if err := b.Validate(row); err == nil || !strings.Contains(err.Error(), "violates PRIMARY KEY") {
				t.Fatalf("%s: row %v lost in round trip (%v)", name, row, err)
			}
		}
	}
	// Extraction walks every segment: GU+GN per root (+ final GB) and
	// a GNP per child plus one GE per chain per type.
	wantGN := int64(40) // 39 successes + final GB
	if stats.GU != 1 || stats.GN != wantGN {
		t.Errorf("root traversal stats = %s", stats.String())
	}
	if stats.GNP != int64(40*3+40 /*parts+GE*/ +40*2+40 /*agents+GE*/) {
		t.Errorf("child traversal GNP = %d", stats.GNP)
	}
}
