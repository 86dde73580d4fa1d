package main

import (
	"fmt"

	"uniqopt"
	"uniqopt/internal/value"
)

// The paper's Figure 1 schema without the range CHECKs, so SNO can grow
// past 499.
var schemaDDL = []string{
	`CREATE TABLE SUPPLIER (SNO INTEGER, SNAME VARCHAR(30), SCITY VARCHAR(20),
		BUDGET INTEGER, STATUS VARCHAR(10), PRIMARY KEY (SNO))`,
	`CREATE TABLE PARTS (SNO INTEGER, PNO INTEGER, PNAME VARCHAR(30),
		OEM-PNO INTEGER, COLOR VARCHAR(10), PRIMARY KEY (SNO, PNO), UNIQUE (OEM-PNO),
		FOREIGN KEY (SNO) REFERENCES SUPPLIER (SNO))`,
	`CREATE TABLE AGENTS (SNO INTEGER, ANO INTEGER, ANAME VARCHAR(30), ACITY VARCHAR(20),
		PRIMARY KEY (SNO, ANO), FOREIGN KEY (SNO) REFERENCES SUPPLIER (SNO))`,
}

var (
	cities    = []string{"Chicago", "New York", "Toronto", "Ottawa", "Hull", "Paris", "Waterloo"}
	colors    = []string{"RED", "BLUE", "GREEN", "YELLOW"}
	namePool  = []string{"Smith", "Jones", "Blake", "Clark", "Adams", "Kim", "Larson", "Paulley"}
	pnamePool = []string{"bolt", "nut", "screw", "washer", "gear"}
)

type supplier struct {
	sno    int64
	sname  string
	scity  string
	budget int64
	status string
}

type part struct {
	sno, pno int64
	pname    string
	oem      int64
	color    string
}

type agent struct {
	sno, ano int64
	aname    string
	acity    string
}

// oemStride spaces OEM-PNO values so the column has a wide domain for
// drawn literals while staying unique: (sno, pno) owns its own slot.
const (
	oemStride    = 8
	maxPartsPerS = 64
)

// mix64 is the splitmix64 finalizer; every row is a pure function of
// (seed, table, key) through it, so the oracle can name any row —
// including ones a workload inserts later — without storing it.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func rowBits(seed int64, table, a, b int64) uint64 {
	return mix64(mix64(mix64(uint64(seed))^uint64(table)) ^ mix64(uint64(a)<<20^uint64(b)))
}

func makeSupplier(seed, sno int64) supplier {
	h := rowBits(seed, 1, sno, 0)
	s := supplier{sno: sno, status: "Active"}
	name := namePool[h%8]
	if sno%3 == 0 {
		// Every third supplier carries a bare pool name, so SNAME
		// repeats across suppliers and Example 2's DISTINCT does work.
		s.sname = name
	} else {
		s.sname = fmt.Sprintf("%s%d", name, sno)
	}
	s.scity = cities[(h>>8)%7]
	s.budget = 1 + int64((h>>16)%1000)
	if (h>>32)%10 == 0 {
		s.budget, s.status = 0, "Inactive"
	}
	return s
}

func makePart(seed, sno, pno int64) part {
	h := rowBits(seed, 2, sno, pno)
	p := part{sno: sno, pno: pno}
	// PNAME depends on PNO alone: two same-named suppliers that both
	// stock part k then agree on (SNAME, PNO, PNAME).
	p.pname = pnamePool[pno%int64(len(pnamePool))]
	p.oem = 1000 + (sno*maxPartsPerS+pno)*oemStride + int64(h%oemStride)
	if (h>>8)%10 < 3 {
		p.color = "RED"
	} else {
		p.color = colors[1+(h>>16)%3]
	}
	return p
}

func makeAgent(seed, sno, ano int64) agent {
	h := rowBits(seed, 3, sno, ano)
	return agent{sno: sno, ano: ano, aname: fmt.Sprintf("agent-%d-%d", sno, ano), acity: cities[h%7]}
}

// dataset is the benchmark's own record of every row the database under
// test should hold: the reference the oracles read. Suppliers are dense
// (SNO 1..n at index sno-1); parts and agents hang off their supplier.
type dataset struct {
	seed      int64
	suppliers []supplier
	parts     [][]part
	agents    [][]agent
	userBytes int64 // 8 per INTEGER cell plus the bytes of every string
}

func (s supplier) bytes() int64 { return int64(16 + len(s.sname) + len(s.scity) + len(s.status)) }
func (p part) bytes() int64     { return int64(24 + len(p.pname) + len(p.color)) }
func (a agent) bytes() int64    { return int64(16 + len(a.aname) + len(a.acity)) }

// generate builds n suppliers with nParts parts and nAgents agents each.
func generate(seed int64, n, nParts, nAgents int) *dataset {
	d := &dataset{seed: seed}
	for i := 0; i < n; i++ {
		d.addSupplier(nParts, nAgents)
	}
	return d
}

// addSupplier appends the next supplier (SNO = count+1) with its parts
// and agents to the record and returns its SNO.
func (d *dataset) addSupplier(nParts, nAgents int) int64 {
	sno := int64(len(d.suppliers) + 1)
	s := makeSupplier(d.seed, sno)
	d.suppliers = append(d.suppliers, s)
	d.userBytes += s.bytes()
	ps := make([]part, nParts)
	for j := range ps {
		ps[j] = makePart(d.seed, sno, int64(j+1))
		d.userBytes += ps[j].bytes()
	}
	d.parts = append(d.parts, ps)
	d.agents = append(d.agents, nil)
	for j := 0; j < nAgents; j++ {
		d.userBytes += d.addAgent(sno).bytes()
	}
	return sno
}

// addAgent records the next agent (ANO = count+1) of supplier sno. It
// touches that supplier's list alone, so goroutines that own disjoint
// suppliers may call it concurrently.
func (d *dataset) addAgent(sno int64) agent {
	as := d.agents[sno-1]
	a := makeAgent(d.seed, sno, int64(len(as)+1))
	d.agents[sno-1] = append(as, a)
	return a
}

func (d *dataset) rowCount() int {
	n := len(d.suppliers)
	for i := range d.parts {
		n += len(d.parts[i]) + len(d.agents[i])
	}
	return n
}

func (s supplier) row() value.Row {
	return value.Row{value.Int(s.sno), value.String_(s.sname), value.String_(s.scity), value.Int(s.budget), value.String_(s.status)}
}

func (p part) row() value.Row {
	return value.Row{value.Int(p.sno), value.Int(p.pno), value.String_(p.pname), value.Int(p.oem), value.String_(p.color)}
}

func (a agent) row() value.Row {
	return value.Row{value.Int(a.sno), value.Int(a.ano), value.String_(a.aname), value.String_(a.acity)}
}

func createSchema(db *uniqopt.DB) error {
	for _, ddl := range schemaDDL {
		if err := db.Exec(ddl); err != nil {
			return fmt.Errorf("create schema: %w", err)
		}
	}
	return nil
}

// createIndexes builds the three ordered indexes the system is deployed
// with; without them a key-bound point lookup is a full scan.
func createIndexes(db *uniqopt.DB) error {
	for _, ix := range []struct {
		table, name string
		cols        []string
	}{
		{"SUPPLIER", "SUPPLIER_SNO", []string{"SNO"}},
		{"PARTS", "PARTS_SNO_PNO", []string{"SNO", "PNO"}},
		{"AGENTS", "AGENTS_SNO_ANO", []string{"SNO", "ANO"}},
	} {
		if err := db.CreateIndex(ix.table, ix.name, ix.cols...); err != nil {
			return fmt.Errorf("create index %s: %w", ix.name, err)
		}
	}
	return nil
}

// rowSink is a way of inserting rows: the typed-row API, or (in
// durable_ingest) single-row INSERT statements with host variables.
type rowSink interface {
	supplier(supplier) error
	part(part) error
	agent(agent) error
}

// apiSink inserts through DB.InsertRow, the constraint-enforcing (and on
// a persistent database WAL-logged) public insert path.
type apiSink struct{ db *uniqopt.DB }

func (k apiSink) supplier(s supplier) error { return k.db.InsertRow("SUPPLIER", s.row()) }
func (k apiSink) part(p part) error         { return k.db.InsertRow("PARTS", p.row()) }
func (k apiSink) agent(a agent) error       { return k.db.InsertRow("AGENTS", a.row()) }

// send inserts supplier sno and the rows that hang off it through sink,
// in ascending key order, supplier first so foreign keys resolve.
func (d *dataset) send(sink rowSink, sno int64) error {
	if err := sink.supplier(d.suppliers[sno-1]); err != nil {
		return fmt.Errorf("supplier %d: %w", sno, err)
	}
	for _, p := range d.parts[sno-1] {
		if err := sink.part(p); err != nil {
			return fmt.Errorf("part %d/%d: %w", p.sno, p.pno, err)
		}
	}
	for _, a := range d.agents[sno-1] {
		if err := sink.agent(a); err != nil {
			return fmt.Errorf("agent %d/%d: %w", a.sno, a.ano, err)
		}
	}
	return nil
}

// load inserts every recorded row into db.
func (d *dataset) load(db *uniqopt.DB) error {
	for sno := int64(1); sno <= int64(len(d.suppliers)); sno++ {
		if err := d.send(apiSink{db}, sno); err != nil {
			return fmt.Errorf("load: %w", err)
		}
	}
	return nil
}
