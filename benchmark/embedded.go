package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"uniqopt"
)

// op is one statement drawn from a class, with the oracle's answer.
type op struct {
	class  int
	stmt   string // prepared-statement name, on the wire
	sql    string
	args   map[string]any
	want   digest
	insert bool // an INSERT (wire_oltp's insert_agent), not a query
	// check, for an insert, is the read-own-write query that must see it.
	check *op
}

// drawFunc draws one op of a class: parameters from r, the reference
// answer from the dataset.
type drawFunc func(r *rand.Rand, d *dataset) op

// failures keeps the first few mismatches for the report; the count is
// in the result line.
var failures struct {
	sync.Mutex
	msgs []string
}

func noteFailure(format string, a ...any) {
	failures.Lock()
	defer failures.Unlock()
	if len(failures.msgs) < 8 {
		failures.msgs = append(failures.msgs, fmt.Sprintf(format, a...))
	}
}

// verify compares a query result with the oracle's digest.
func verify(class string, o *op, data [][]any, err error) bool {
	if err != nil {
		noteFailure("%s: %v [%s %v]", class, err, o.sql, o.args)
		return false
	}
	got, derr := digestRows(data)
	if derr != nil || got != o.want {
		noteFailure("%s: got %d rows sum %x, want %d rows sum %x (%v) [%s %v]",
			class, got.rows, got.sum, o.want.rows, o.want.sum, derr, o.sql, o.args)
		return false
	}
	return true
}

// heapInUse forces a collection and reports the live heap.
func heapInUse() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapInuse
}

// embedded is a single-goroutine workload calling DB.QueryWithContext:
// embedded_adhoc and embedded_analytic differ only in data size, class
// list and how the next class is chosen.
type embedded struct {
	def    *workloadDef
	db     *uniqopt.DB
	data   *dataset
	rng    *rand.Rand
	draws  []drawFunc
	robin  bool // classes in rotation (analytic) or drawn uniformly (adhoc)
	issued int
	// heapPerUserByte is the loaded database's live heap over the bytes
	// of user data in it.
	heapPerUserByte float64
	caches          cacheWatch
}

func (e *embedded) nextClass() int {
	e.issued++
	if e.robin {
		return (e.issued - 1) % len(e.draws)
	}
	return e.rng.Intn(len(e.draws))
}

func (e *embedded) draw(class int) op {
	o := e.draws[class](e.rng, e.data)
	o.class = class
	return o
}

// exec runs one op and checks it; the returned duration is the call
// into the database alone.
func (e *embedded) exec(ctx context.Context, o *op) (time.Time, time.Duration, bool) {
	t0 := time.Now()
	rows, err := e.db.QueryWithContext(ctx, o.sql, o.args, true)
	lat := time.Since(t0)
	var data [][]any
	if rows != nil {
		data = rows.Data
	}
	return t0, lat, verify(e.def.classes[o.class], o, data, err)
}

// setupEmbedded generates, loads, indexes and warms up.
func setupEmbedded(def *workloadDef, seed int64, suppliers, parts, agents, warmup int, robin bool, draws []drawFunc) (*embedded, error) {
	e := &embedded{def: def, draws: draws, robin: robin, rng: rand.New(rand.NewSource(seed))}
	e.data = generate(seed, suppliers, parts, agents)
	heap0 := heapInUse()
	e.db = uniqopt.Open()
	if err := createSchema(e.db); err != nil {
		return nil, err
	}
	if err := e.data.load(e.db); err != nil {
		return nil, err
	}
	if err := createIndexes(e.db); err != nil {
		return nil, err
	}
	e.heapPerUserByte = float64(heapInUse()-heap0) / float64(e.data.userBytes)
	ctx := context.Background()
	for i := 0; i < warmup; i++ {
		o := e.draw(e.nextClass())
		if _, _, ok := e.exec(ctx, &o); !ok {
			return nil, fmt.Errorf("%s: warm-up op %d failed: %v", def.Name, i, failures.msgs)
		}
	}
	return e, nil
}

func (e *embedded) clients() int { return 1 }

func (e *embedded) run(_ int, r *recorder, until time.Time) {
	e.caches.start(e.db)
	ctx := context.Background()
	for time.Now().Before(until) {
		o := e.draw(e.nextClass())
		t0, lat, ok := e.exec(ctx, &o)
		r.add(o.class, t0, lat, ok)
	}
}

// cacheWatch reads what a measured pass did to the verdict and plan
// caches, and how many statement shapes the metrics registry ended with.
type cacheWatch struct{ verdictHits, verdictMisses, planHits, planMisses int64 }

func (c *cacheWatch) start(db *uniqopt.DB) {
	c.verdictHits, c.verdictMisses = db.CacheCounters()
	c.planHits, c.planMisses = db.PlanCacheCounters()
}

func (c *cacheWatch) report(db *uniqopt.DB, out metricSet) {
	rate := func(hits, misses int64) float64 {
		if hits+misses == 0 {
			return 0
		}
		return float64(hits) / float64(hits+misses)
	}
	vh, vm := db.CacheCounters()
	ph, pm := db.PlanCacheCounters()
	out["core.verdict_hit_rate"] = rate(vh-c.verdictHits, vm-c.verdictMisses)
	out["plan.cache_hit_rate"] = rate(ph-c.planHits, pm-c.planMisses)
	out["metrics.shapes"] = float64(len(db.Metrics().Shapes))
}

func (e *embedded) afterPass(out metricSet) {
	e.caches.report(e.db, out)
	out["storage.heap_bytes_per_user_byte"] = e.heapPerUserByte
}

func (e *embedded) trace(t *tracer, _ metricSet) error {
	ctx := context.Background()
	e.rng, e.issued = traceRand(e.data.seed), 0
	for i := 0; t.more(i); i++ {
		class := e.nextClass()
		name := e.def.classes[class]
		root := t.begin(i, name, "op", -1)
		probeQuery(ctx, t, e.db, i, name, root, func() op { return e.draw(class) })
		t.end(root)
	}
	return nil
}

func (e *embedded) finish(metricSet, bool, float64) error { return nil }

func (e *embedded) close() error { return e.db.Close() }

// ---- embedded_adhoc: literal constants, 50 suppliers x 4 parts x 2 agents ----

const (
	adhocSuppliers = 50
	adhocParts     = 4
	adhocAgents    = 2
	// adhocWarmup statements run before the measured pass.
	adhocWarmup = 2000
)

// oemOf is the first OEM-PNO slot of (sno, pno); literals drawn around
// it cut a supplier's parts at a random point.
func oemOf(sno, pno int64) int64 { return 1000 + (sno*maxPartsPerS+pno)*oemStride }

// Each class draws its literals from about 4,400 combinations, so the
// seven classes own about 30,000 distinct texts between them: several
// times the 4,096 entries of the verdict and plan caches, yet with
// enough repeats that both a hit and a miss are common.
var adhocDraws = []drawFunc{
	// ex1_lit — Example 1, DISTINCT proved redundant.
	func(r *rand.Rand, d *dataset) op {
		lit := oemOf(1, 0) + 6*int64(r.Intn(4400))
		return op{
			sql: fmt.Sprintf(`SELECT DISTINCT S.SNO, P.PNO, P.PNAME FROM SUPPLIER S, PARTS P
				WHERE S.SNO = P.SNO AND P.COLOR = 'RED' AND P.OEM-PNO < %d`, lit),
			want: d.ex1(0, lit),
		}
	},
	// ex2_lit — Example 2, DISTINCT retained.
	func(r *rand.Rand, d *dataset) op {
		lit := oemOf(1, 0) + 6*int64(r.Intn(4400))
		return op{
			sql: fmt.Sprintf(`SELECT DISTINCT S.SNAME, P.PNO, P.PNAME FROM SUPPLIER S, PARTS P
				WHERE S.SNO = P.SNO AND P.COLOR = 'RED' AND P.OEM-PNO < %d`, lit),
			want: d.ex2(0, lit),
		}
	},
	// ex4_lit — Example 4, key-bound with a literal supplier number.
	func(r *rand.Rand, d *dataset) op {
		sno := 1 + int64(r.Intn(adhocSuppliers))
		lit := oemOf(sno, 0) + int64(r.Intn(88)) - 30
		return op{
			sql: fmt.Sprintf(`SELECT DISTINCT S.SNO, SNAME, P.PNO, PNAME FROM SUPPLIER S, PARTS P
				WHERE P.SNO = %d AND S.SNO = P.SNO AND P.OEM-PNO > %d`, sno, lit),
			want: d.partsOf(sno, lit),
		}
	},
	// ex7_lit — Example 7, subquery to join.
	func(r *rand.Rand, d *dataset) op {
		name := d.suppliers[r.Intn(len(d.suppliers))].sname
		budget := 50 * int64(r.Intn(22))
		k := 1 + int64(r.Intn(adhocParts))
		return op{
			sql: fmt.Sprintf(`SELECT ALL S.SNO, S.SNAME FROM SUPPLIER S
				WHERE S.SNAME = '%s' AND S.BUDGET < %d AND
				EXISTS (SELECT * FROM PARTS P WHERE S.SNO = P.SNO AND P.PNO = %d)`, name, budget, k),
			want: d.ex7(name, budget, k),
		}
	},
	// ex9_lit — Example 9, intersect to exists.
	func(r *rand.Rand, d *dataset) op {
		city, c1, c2 := cities[r.Intn(7)], cities[r.Intn(7)], cities[r.Intn(7)]
		budget := 77 * int64(r.Intn(13))
		return op{
			sql: fmt.Sprintf(`SELECT ALL S.SNO FROM SUPPLIER S WHERE S.SCITY = '%s' AND S.BUDGET > %d
				INTERSECT
				SELECT ALL A.SNO FROM AGENTS A WHERE A.ACITY = '%s' OR A.ACITY = '%s'`, city, budget, c1, c2),
			want: d.ex9(city, budget, c1, c2),
		}
	},
	// disj_lit — a two-disjunct WHERE: CNF to DNF, and the key test must
	// hold in every disjunct.
	func(r *rand.Rand, d *dataset) op {
		span := oemOf(adhocSuppliers+1, 0) - oemOf(1, 0)
		redBelow := oemOf(1, 0) + span*int64(r.Intn(33))/32
		kAbove := oemOf(1, 0) + span*int64(r.Intn(33))/32
		k := 1 + int64(r.Intn(adhocParts))
		return op{
			sql: fmt.Sprintf(`SELECT DISTINCT S.SNO, P.PNO FROM SUPPLIER S, PARTS P
				WHERE S.SNO = P.SNO AND (P.COLOR = 'RED' AND P.OEM-PNO < %d OR P.PNO = %d AND P.OEM-PNO > %d)`,
				redBelow, k, kAbove),
			want: d.disj(redBelow, k, kAbove),
		}
	},
	// chain3_lit — AGENTS, PARTS, SUPPLIER chained on SNO, key-bound.
	func(r *rand.Rand, d *dataset) op {
		sno := 1 + int64(r.Intn(adhocSuppliers))
		lit := oemOf(sno, 0) + int64(r.Intn(88)) - 30
		return op{
			sql: fmt.Sprintf(`SELECT ALL A.SNO, A.ANO, P.PNO, S.SNAME FROM AGENTS A, PARTS P, SUPPLIER S
				WHERE A.SNO = P.SNO AND P.SNO = S.SNO AND S.SNO = %d AND P.OEM-PNO <> %d`, sno, lit),
			want: d.chain3(sno, lit),
		}
	},
}

func setupAdhoc(seed int64) (instance, error) {
	return setupEmbedded(findWorkload("embedded_adhoc"), seed,
		adhocSuppliers, adhocParts, adhocAgents, adhocWarmup, false, adhocDraws)
}

// ---- embedded_analytic: host variables, 640 suppliers x 25 parts x 3 agents ----

const (
	analyticSuppliers = 640
	analyticParts     = 25
	analyticAgents    = 3
	// analyticWarmup is 12 rounds of the seven classes.
	analyticWarmup = 84
	// rangeSpan is the width of range_join's SNO range: a fifth of the
	// suppliers, as Example 11's BETWEEN over an indexed outer.
	rangeSpan = 128
)

const (
	sqlFilterScan = `SELECT ALL P.SNO, P.PNO, P.OEM-PNO FROM PARTS P
		WHERE P.COLOR <> 'RED' AND P.PNO > :K AND P.OEM-PNO < :M`
	sqlEx1Elim = `SELECT DISTINCT S.SNO, P.PNO, P.PNAME FROM SUPPLIER S, PARTS P
		WHERE S.SNO = P.SNO AND P.COLOR = 'RED' AND P.PNO >= :K`
	sqlEx2Keep = `SELECT DISTINCT S.SNAME, P.PNO, P.PNAME FROM SUPPLIER S, PARTS P
		WHERE S.SNO = P.SNO AND P.COLOR = 'RED' AND P.PNO >= :K`
	sqlEx8Exists = `SELECT ALL S.SNO, S.SNAME FROM SUPPLIER S
		WHERE EXISTS (SELECT * FROM PARTS P WHERE P.SNO = S.SNO AND P.COLOR = 'RED' AND P.PNO >= :K)`
	sqlEx9Intersect = `SELECT ALL S.SNO FROM SUPPLIER S WHERE S.SCITY = :C AND S.BUDGET > :B
		INTERSECT
		SELECT ALL A.SNO FROM AGENTS A WHERE A.ACITY = :C1 OR A.ACITY = :C2`
	sqlRangeJoin = `SELECT ALL S.SNO, S.SNAME, S.SCITY, S.BUDGET, S.STATUS FROM SUPPLIER S, PARTS P
		WHERE S.SNO BETWEEN :L AND :H AND S.SNO = P.SNO AND P.PNO = :PARTNO`
	sqlChain3 = `SELECT ALL A.SNO, A.ANO, P.PNO, S.SNAME FROM AGENTS A, PARTS P, SUPPLIER S
		WHERE A.SNO = P.SNO AND P.SNO = S.SNO AND S.SNO = :N`
)

var analyticDraws = []drawFunc{
	// filter_scan — a predicate no index serves.
	func(r *rand.Rand, d *dataset) op {
		k := int64(r.Intn(analyticParts - 4))
		n := int64(len(d.suppliers))
		m := oemOf(n/2, 0) + int64(r.Int63n(oemOf(n+1, 0)-oemOf(n/2, 0)))
		return op{sql: sqlFilterScan, args: map[string]any{"K": k, "M": m}, want: d.filterScan(k, m)}
	},
	// ex1_elim — Example 1: DISTINCT proved redundant, no dedup runs.
	func(r *rand.Rand, d *dataset) op {
		k := 1 + int64(r.Intn(5))
		return op{sql: sqlEx1Elim, args: map[string]any{"K": k}, want: d.ex1(k, math.MaxInt64)}
	},
	// ex2_keep — Example 2: DISTINCT retained, dedup runs.
	func(r *rand.Rand, d *dataset) op {
		k := 1 + int64(r.Intn(5))
		return op{sql: sqlEx2Keep, args: map[string]any{"K": k}, want: d.ex2(k, math.MaxInt64)}
	},
	// ex8_exists — Example 8: subquery to join.
	func(r *rand.Rand, d *dataset) op {
		k := 1 + int64(r.Intn(5))
		return op{sql: sqlEx8Exists, args: map[string]any{"K": k}, want: d.ex8(k)}
	},
	// ex9_intersect — Example 9: intersect to exists.
	func(r *rand.Rand, d *dataset) op {
		city, c1, c2 := cities[r.Intn(7)], cities[r.Intn(7)], cities[r.Intn(7)]
		b := int64(r.Intn(500))
		return op{sql: sqlEx9Intersect, args: map[string]any{"C": city, "B": b, "C1": c1, "C2": c2},
			want: d.ex9(city, b, c1, c2)}
	},
	// range_join — Example 11: indexed outer range, unique probe of the
	// inner that today scans all of it.
	func(r *rand.Rand, d *dataset) op {
		lo := 1 + int64(r.Intn(len(d.suppliers)-rangeSpan))
		k := 1 + int64(r.Intn(analyticParts))
		return op{sql: sqlRangeJoin, args: map[string]any{"L": lo, "H": lo + rangeSpan, "PARTNO": k},
			want: d.rangeJoin(lo, lo+rangeSpan, k)}
	},
	// chain3 — three-way chain, key-bound.
	func(r *rand.Rand, d *dataset) op {
		n := 1 + int64(r.Intn(len(d.suppliers)))
		return op{sql: sqlChain3, args: map[string]any{"N": n}, want: d.chain3(n, 0)}
	},
}

func setupAnalytic(seed int64) (instance, error) {
	return setupEmbedded(findWorkload("embedded_analytic"), seed,
		analyticSuppliers, analyticParts, analyticAgents, analyticWarmup, true, analyticDraws)
}
