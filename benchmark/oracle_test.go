package main

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// tiny is a hand-written instance: suppliers 1 and 3 share a name, so
// Example 2's DISTINCT has a duplicate to remove.
func tiny() *dataset {
	return &dataset{
		suppliers: []supplier{
			{1, "Smith", "Toronto", 100, "Active"},
			{2, "Jones2", "Chicago", 500, "Active"},
			{3, "Smith", "Toronto", 900, "Active"},
		},
		parts: [][]part{
			{{1, 1, "bolt", 1010, "RED"}, {1, 2, "nut", 1020, "BLUE"}},
			{{2, 1, "bolt", 2010, "RED"}, {2, 2, "nut", 2020, "RED"}},
			{{3, 1, "bolt", 3010, "RED"}, {3, 2, "nut", 3020, "GREEN"}},
		},
		agents: [][]agent{
			{{1, 1, "a11", "Ottawa"}, {1, 2, "a12", "Paris"}},
			{{2, 1, "a21", "Hull"}},
			{{3, 1, "a31", "Chicago"}},
		},
	}
}

func i(v int) any { return int64(v) }

func TestOraclesOnHandWrittenInstance(t *testing.T) {
	d := tiny()
	big := int64(math.MaxInt64)
	for _, tc := range []struct {
		name string
		got  digest
		want [][]any
	}{
		{"point", d.point(2), [][]any{{i(2), "Jones2", "Chicago", i(500), "Active"}}},
		{"point of a missing supplier", d.point(9), nil},
		{"partsOf", d.partsOf(1, 0), [][]any{{i(1), "Smith", i(1), "bolt"}, {i(1), "Smith", i(2), "nut"}}},
		{"partsOf above an OEM-PNO", d.partsOf(1, 1010), [][]any{{i(1), "Smith", i(2), "nut"}}},
		{"existsProbe hit", d.existsProbe(2, 2), [][]any{{i(2), "Jones2"}}},
		{"existsProbe miss", d.existsProbe(2, 3), nil},
		{"chain3", d.chain3(1, 0), [][]any{
			{i(1), i(1), i(1), "Smith"}, {i(1), i(1), i(2), "Smith"},
			{i(1), i(2), i(1), "Smith"}, {i(1), i(2), i(2), "Smith"}}},
		{"chain3 without one OEM-PNO", d.chain3(1, 1020), [][]any{{i(1), i(1), i(1), "Smith"}, {i(1), i(2), i(1), "Smith"}}},
		{"agentRead", d.agentRead(1, 2), [][]any{{i(1), i(2), "a12", "Paris"}}},
		{"agentRead of a missing agent", d.agentRead(2, 2), nil},
		{"partRead", d.partRead(3, 2), [][]any{{i(3), "Smith", i(2), i(3020)}}},
		{"ex1", d.ex1(0, big), [][]any{
			{i(1), i(1), "bolt"}, {i(2), i(1), "bolt"}, {i(2), i(2), "nut"}, {i(3), i(1), "bolt"}}},
		{"ex1 from PNO 2", d.ex1(2, big), [][]any{{i(2), i(2), "nut"}}},
		{"ex1 below an OEM-PNO", d.ex1(0, 2015), [][]any{{i(1), i(1), "bolt"}, {i(2), i(1), "bolt"}}},
		// (Smith, 1, bolt) qualifies twice, through suppliers 1 and 3.
		{"ex2 removes the duplicate", d.ex2(0, big), [][]any{{"Smith", i(1), "bolt"}, {"Jones2", i(1), "bolt"}, {"Jones2", i(2), "nut"}}},
		{"ex7", d.ex7("Smith", 500, 1), [][]any{{i(1), "Smith"}}},
		{"ex7 without the part", d.ex7("Smith", 500, 3), nil},
		// Supplier 2 has two RED parts and still appears once.
		{"ex8", d.ex8(1), [][]any{{i(1), "Smith"}, {i(2), "Jones2"}, {i(3), "Smith"}}},
		{"ex8 from PNO 2", d.ex8(2), [][]any{{i(2), "Jones2"}}},
		{"ex9", d.ex9("Toronto", 50, "Ottawa", "Hull"), [][]any{{i(1)}}},
		{"ex9 above a budget", d.ex9("Toronto", 100, "Ottawa", "Chicago"), [][]any{{i(3)}}},
		{"disj", d.disj(2015, 2, 3000), [][]any{{i(1), i(1)}, {i(2), i(1)}, {i(3), i(2)}}},
		{"filterScan", d.filterScan(1, 3025), [][]any{{i(1), i(2), i(1020)}, {i(3), i(2), i(3020)}}},
		{"rangeJoin", d.rangeJoin(2, 3, 1), [][]any{
			{i(2), "Jones2", "Chicago", i(500), "Active"}, {i(3), "Smith", "Toronto", i(900), "Active"}}},
	} {
		want, err := digestRows(tc.want)
		if err != nil {
			t.Fatal(err)
		}
		if tc.got != want {
			t.Errorf("%s: oracle gives %d rows sum %x, hand-written answer has %d rows sum %x",
				tc.name, tc.got.rows, tc.got.sum, want.rows, want.sum)
		}
	}
}

// The comparison must bite: a result with one row dropped, one row
// duplicated, or one cell altered is caught; a reordered one is not.
func TestDigestCatchesWrongResults(t *testing.T) {
	d := tiny()
	want := d.ex1(0, math.MaxInt64)
	right := [][]any{{i(1), i(1), "bolt"}, {i(2), i(1), "bolt"}, {i(2), i(2), "nut"}, {i(3), i(1), "bolt"}}
	check := func(name string, rows [][]any, same bool) {
		got, err := digestRows(rows)
		if err != nil {
			t.Fatal(err)
		}
		if (got == want) != same {
			t.Errorf("%s: digest equal = %v, want %v", name, got == want, same)
		}
	}
	check("the right answer", right, true)
	check("reordered", [][]any{right[3], right[1], right[0], right[2]}, true)
	check("one row dropped", right[:3], false)
	check("one row duplicated", append(append([][]any{}, right...), right[1]), false)
	check("one dropped and another duplicated", [][]any{right[0], right[1], right[1], right[3]}, false)
	check("one cell altered", [][]any{right[0], right[1], {i(2), i(2), "bolt"}, right[3]}, false)
	check("integer for string", [][]any{right[0], right[1], right[2], {i(3), "1", "bolt"}}, false)
	if _, err := digestRows([][]any{{3.5}}); err == nil {
		t.Error("a float cell should be refused")
	}
}

func TestGeneratorIsDeterministic(t *testing.T) {
	a, b := generate(42, 60, 5, 2), generate(42, 60, 5, 2)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave different data")
	}
	if reflect.DeepEqual(a.suppliers, generate(43, 60, 5, 2).suppliers) {
		t.Error("different seeds gave the same suppliers")
	}
	if a.rowCount() != 60*(1+5+2) {
		t.Errorf("%d rows, want %d", a.rowCount(), 60*8)
	}
	// Rows are pure functions of (seed, key): a row added later is the
	// row a bigger instance holds from the start.
	grown := generate(42, 59, 5, 2)
	grown.addSupplier(5, 2)
	if !reflect.DeepEqual(grown.suppliers[59], a.suppliers[59]) || !reflect.DeepEqual(grown.parts[59], a.parts[59]) {
		t.Error("a supplier added later differs from the generated one")
	}
	// The properties the workloads lean on.
	oems := map[int64]bool{}
	names := map[string]int{}
	red := 0
	for s, ps := range a.parts {
		names[a.suppliers[s].sname]++
		for _, p := range ps {
			if oems[p.oem] {
				t.Fatalf("OEM-PNO %d repeats", p.oem)
			}
			oems[p.oem] = true
			if p.oem < oemOf(p.sno, p.pno) || p.oem >= oemOf(p.sno, p.pno)+oemStride {
				t.Fatalf("OEM-PNO %d outside the slot of (%d, %d)", p.oem, p.sno, p.pno)
			}
			if p.color == "RED" {
				red++
			}
		}
	}
	if len(names) >= 60 {
		t.Error("no SNAME repeats: Example 2's DISTINCT would have nothing to do")
	}
	if red < 60 || red > 120 {
		t.Errorf("%d of 300 parts are RED, want about 90", red)
	}
}

// Every embedded statement, run on the real database, agrees with its
// oracle: the SQL text and the plain-Go reference say the same thing.
func TestStatementsAgreeWithOracles(t *testing.T) {
	for _, tc := range []struct {
		workload  string
		suppliers int
		parts     int
		agents    int
		draws     []drawFunc
	}{
		{"embedded_adhoc", adhocSuppliers, adhocParts, adhocAgents, adhocDraws},
		{"embedded_analytic", rangeSpan + 20, analyticParts, analyticAgents, analyticDraws},
	} {
		e, err := setupEmbedded(findWorkload(tc.workload), 7, tc.suppliers, tc.parts, tc.agents, 0, true, tc.draws)
		if err != nil {
			t.Fatal(err)
		}
		empty := 0
		for n := 0; n < 10*len(tc.draws); n++ {
			o := e.draw(e.nextClass())
			if _, _, ok := e.exec(context.Background(), &o); !ok {
				t.Fatalf("%s: %v", tc.workload, failures.msgs)
			}
			if o.want.rows == 0 {
				empty++
			}
		}
		if empty > 5*len(tc.draws) {
			t.Errorf("%s: %d of %d answers were empty; the parameters miss the data", tc.workload, empty, 10*len(tc.draws))
		}
		if err := e.close(); err != nil {
			t.Error(err)
		}
	}
}

// The wire mix adds up, and draws stay inside the data.
func TestWireMix(t *testing.T) {
	total := 0
	for _, share := range wireMix {
		total += share
	}
	if total != 100 || len(wireMix) != len(findWorkload("wire_oltp").classes) {
		t.Fatalf("wire mix sums to %d over %d classes", total, len(wireMix))
	}
	w := &wire{def: findWorkload("wire_oltp"), data: generate(3, wireSuppliers, wireParts, wireAgents)}
	for id := 0; id < wireClients; id++ {
		wc := &wireConn{id: id, rng: rand.New(rand.NewSource(int64(id)))}
		for n := 0; n < 2000; n++ {
			o := w.draw(wc, w.nextClass(wc))
			if !o.insert {
				continue
			}
			sno := o.args["S"].(int64)
			if sno <= wireSuppliers/2 || sno > wireSuppliers || int(sno-1)%wireClients != id {
				t.Fatalf("connection %d inserts for supplier %d", id, sno)
			}
			if o.check.want.rows != 1 {
				t.Fatalf("read-own-write of %v expects %d rows", o.args, o.check.want.rows)
			}
		}
	}
}
