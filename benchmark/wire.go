package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"uniqopt"
	"uniqopt/internal/server"
	"uniqopt/internal/server/client"
	"uniqopt/internal/sql/parser"
)

// ---- wire_oltp: uniqoptd in process over loopback TCP, 2 closed-loop clients ----

const (
	wireSuppliers = 2000
	wireParts     = 10
	wireAgents    = 2
	wireClients   = 2
	// wireWarmup EXECs per client run before the measured pass.
	wireWarmup = 1500
)

const (
	sqlPoint = `SELECT ALL S.SNO, S.SNAME, S.SCITY, S.BUDGET, S.STATUS FROM SUPPLIER S WHERE S.SNO = :N`
	// Example 3.
	sqlPartsOf = `SELECT ALL S.SNO, SNAME, P.PNO, PNAME FROM SUPPLIER S, PARTS P
		WHERE P.SNO = :N AND S.SNO = P.SNO`
	// Example 4.
	sqlDistinctElim = `SELECT DISTINCT S.SNO, SNAME, P.PNO, PNAME FROM SUPPLIER S, PARTS P
		WHERE P.SNO = :N AND S.SNO = P.SNO`
	// Example 7's shape with the supplier key bound.
	sqlExistsProbe = `SELECT ALL S.SNO, S.SNAME FROM SUPPLIER S
		WHERE S.SNO = :N AND EXISTS (SELECT * FROM PARTS P WHERE S.SNO = P.SNO AND P.PNO = :K)`
	sqlInsertAgent = `INSERT INTO AGENTS VALUES (:S, :A, :NAME, :CITY)`
	sqlAgentRead   = `SELECT ALL A.SNO, A.ANO, A.ANAME, A.ACITY FROM AGENTS A WHERE A.SNO = :S AND A.ANO = :A`
)

// wireStmts are prepared on every connection, in class order, then the
// read-own-write check.
var wireStmts = []struct{ name, sql string }{
	{"point", sqlPoint}, {"parts_of", sqlPartsOf}, {"distinct_elim", sqlDistinctElim},
	{"exists_probe", sqlExistsProbe}, {"chain3", sqlChain3}, {"insert_agent", sqlInsertAgent},
	{"agent_read", sqlAgentRead},
}

// wireMix is each class's share of the ops, in percent, in class order.
var wireMix = []int{35, 20, 15, 15, 10, 5}

type wireConn struct {
	id  int
	c   *client.Client
	rng *rand.Rand
}

type wire struct {
	def    *workloadDef
	db     *uniqopt.DB
	srv    *server.Server
	served chan error
	data   *dataset
	conns  []*wireConn

	caches cacheWatch
}

func setupWire(seed int64) (instance, error) {
	w := &wire{def: findWorkload("wire_oltp"), served: make(chan error, 1)}
	w.data = generate(seed, wireSuppliers, wireParts, wireAgents)
	w.db = uniqopt.Open()
	if err := createSchema(w.db); err != nil {
		return nil, err
	}
	if err := w.data.load(w.db); err != nil {
		return nil, err
	}
	if err := createIndexes(w.db); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	w.srv = server.New(w.db, server.DefaultConfig())
	go func() { w.served <- w.srv.Serve(ln) }()
	for i := 0; i < wireClients; i++ {
		c, err := client.Dial(ln.Addr().String())
		if err != nil {
			w.close()
			return nil, err
		}
		w.conns = append(w.conns, &wireConn{id: i, c: c, rng: rand.New(rand.NewSource(seed*wireClients + int64(i)))})
		for _, st := range wireStmts {
			if err := c.Prepare(st.name, st.sql); err != nil {
				w.close()
				return nil, fmt.Errorf("prepare %s: %w", st.name, err)
			}
		}
	}
	var wg sync.WaitGroup
	warm := make([]bool, wireClients)
	for _, wc := range w.conns {
		wg.Add(1)
		go func(wc *wireConn) {
			defer wg.Done()
			warm[wc.id] = true
			for i := 0; i < wireWarmup; i++ {
				o := w.draw(wc, w.nextClass(wc))
				if _, ok := w.exec(wc, &o, true); !ok {
					warm[wc.id] = false
					return
				}
			}
		}(wc)
	}
	wg.Wait()
	for _, ok := range warm {
		if !ok {
			w.close()
			return nil, fmt.Errorf("wire_oltp: a warm-up op failed: %v", failures.msgs)
		}
	}
	return w, nil
}

func (w *wire) nextClass(wc *wireConn) int {
	x := wc.rng.Intn(100)
	for c, share := range wireMix {
		if x < share {
			return c
		}
		x -= share
	}
	return 0
}

// draw draws one op of a class for a connection. Reads of AGENTS stay in
// the lower half of the suppliers and inserts in the upper half, each
// connection inserting for suppliers of its own parity: no read's answer
// depends on how the two connections interleave.
func (w *wire) draw(wc *wireConn, class int) op {
	d, r := w.data, wc.rng
	n := 1 + int64(r.Intn(wireSuppliers))
	o := op{class: class, stmt: w.def.classes[class]}
	switch o.stmt {
	case "point":
		o.sql, o.args, o.want = sqlPoint, map[string]any{"N": n}, d.point(n)
	case "parts_of":
		o.sql, o.args, o.want = sqlPartsOf, map[string]any{"N": n}, d.partsOf(n, 0)
	case "distinct_elim":
		o.sql, o.args, o.want = sqlDistinctElim, map[string]any{"N": n}, d.partsOf(n, 0)
	case "exists_probe":
		k := 1 + int64(r.Intn(wireParts+2)) // two of twelve probes miss
		o.sql, o.args, o.want = sqlExistsProbe, map[string]any{"N": n, "K": k}, d.existsProbe(n, k)
	case "chain3":
		n = 1 + int64(r.Intn(wireSuppliers/2))
		o.sql, o.args, o.want = sqlChain3, map[string]any{"N": n}, d.chain3(n, 0)
	case "insert_agent":
		n = wireSuppliers/2 + 1 + int64(r.Intn(wireSuppliers/2/wireClients))*wireClients + int64(wc.id)
		a := d.addAgent(n)
		o.insert = true
		o.sql = sqlInsertAgent
		o.args = map[string]any{"S": a.sno, "A": a.ano, "NAME": a.aname, "CITY": a.acity}
		o.check = &op{stmt: "agent_read", sql: sqlAgentRead,
			args: map[string]any{"S": a.sno, "A": a.ano}, want: d.agentRead(a.sno, a.ano)}
	}
	return o
}

// exec sends one op over the connection and checks the answer. The
// returned duration is the op's own round trip; an insert's
// read-own-write check (skipped when readBack is false) is a second,
// untimed round trip.
func (w *wire) exec(wc *wireConn, o *op, readBack bool) (time.Duration, bool) {
	t0 := time.Now()
	res, err := wc.c.Exec(o.stmt, o.args)
	lat := time.Since(t0)
	return lat, w.check(wc, o, res, err, readBack)
}

func (w *wire) check(wc *wireConn, o *op, res *client.Result, err error, readBack bool) bool {
	if !o.insert {
		var data [][]any
		if res != nil {
			data = res.Rows
		}
		return verify(o.stmt, o, data, err)
	}
	if err != nil || res.RowsAffected != 1 {
		noteFailure("insert_agent %v: %v", o.args, err)
		return false
	}
	if !readBack {
		return true
	}
	res, err = wc.c.Exec(o.check.stmt, o.check.args)
	var data [][]any
	if res != nil {
		data = res.Rows
	}
	return verify("insert_agent read-own-write", o.check, data, err)
}

func (w *wire) clients() int { return wireClients }

func (w *wire) run(c int, r *recorder, until time.Time) {
	if c == 0 {
		w.caches.start(w.db)
	}
	wc := w.conns[c]
	for time.Now().Before(until) {
		o := w.draw(wc, w.nextClass(wc))
		t0 := time.Now()
		lat, ok := w.exec(wc, &o, true)
		r.add(o.class, t0, lat, ok)
	}
}

func (w *wire) afterPass(out metricSet) {
	w.caches.report(w.db, out)
	var cmds int64
	for _, sh := range w.srv.Metrics().Shapes {
		cmds += sh.Count
	}
	if cmds > 0 {
		out["server.admission_rejected_share"] = float64(w.srv.Metrics().Governor.Rejections) / float64(cmds)
	}
}

// trace replays sampled ops from one goroutine: the in-process probes on
// the served database, then the same class over the wire, then the op's
// actual request and response through WriteFrame and ReadFrame.
func (w *wire) trace(t *tracer, _ metricSet) error {
	ctx := context.Background()
	wc := w.conns[0]
	wc.rng = traceRand(w.data.seed)
	for i := 0; t.more(i); i++ {
		class := w.nextClass(wc)
		name := w.def.classes[class]
		root := t.begin(i, name, "op", -1)
		draw := func() op { return w.draw(wc, class) }
		if name == "insert_agent" {
			w.probeInsert(t, i, root, draw)
		} else {
			probeQuery(ctx, t, w.db, i, name, root, draw)
		}

		o := draw()
		s := t.begin(i, name, "client.roundtrip", root)
		res, err := wc.c.Exec(o.stmt, o.args)
		t.end(s)
		if !w.check(wc, &o, res, err, false) {
			return fmt.Errorf("traced %s over the wire failed: %v", name, failures.msgs)
		}

		req := &server.Request{ID: uint64(i + 1), Cmd: server.CmdExec, Name: o.stmt, Args: o.args}
		resp := &server.Response{ID: req.ID, OK: true, Columns: res.Columns, Rows: res.Rows,
			Rewrite: res.Rewrites, RowsAffected: res.RowsAffected, CatalogVersion: res.CatalogVersion}
		var reqBuf, respBuf bytes.Buffer
		s = t.begin(i, name, "server.frame_encode", root)
		err1, err2 := server.WriteFrame(&reqBuf, req), server.WriteFrame(&respBuf, resp)
		t.end(s)
		t.framed++
		t.reqBytes += int64(reqBuf.Len())
		t.respBytes += int64(respBuf.Len())
		var req2 server.Request
		var resp2 server.Response
		s = t.begin(i, name, "server.frame_decode", root)
		err3, err4 := server.ReadFrame(&reqBuf, &req2), server.ReadFrame(&respBuf, &resp2)
		t.end(s)
		for _, err := range []error{err1, err2, err3, err4} {
			if err != nil {
				return fmt.Errorf("frame probe: %w", err)
			}
		}
		t.end(root)
	}
	return nil
}

// probeInsert is probeQuery for the INSERT class: there is no analysis
// or plan to probe, only the parse and the in-process execution.
func (w *wire) probeInsert(t *tracer, id, root int, draw func() op) {
	o := draw()
	s := t.begin(id, o.stmt, "sql.parse", root)
	_, err := parser.ParseStatement(o.sql)
	t.end(s)
	if err != nil {
		noteFailure("insert_agent: parse: %v", err)
	}
	s = t.begin(id, o.stmt, "uniqopt.query", root)
	n, err := w.db.ExecWith(o.sql, o.args)
	t.end(s)
	if err != nil || n != 1 {
		noteFailure("insert_agent in process %v: %v", o.args, err)
	}
}

// openLoop offers a fixed rate over the same connections for d: request
// i of a connection is due at start + i*interval whether or not the
// previous one has returned, and its latency runs from when it was due.
// A connection is synchronous, so a stall makes later requests late;
// that wait is counted, not omitted.
func (w *wire) openLoop(d time.Duration, out metricSet) error {
	interval := time.Duration(int64(time.Second) * wireClients / openLoopRate)
	type sample struct{ lat, late time.Duration }
	samples := make([][]sample, wireClients)
	backlog := make([]int, wireClients)
	failed := make([]bool, wireClients)
	start := time.Now()
	var wg sync.WaitGroup
	for _, wc := range w.conns {
		wg.Add(1)
		go func(wc *wireConn) {
			defer wg.Done()
			for i := 0; ; i++ {
				due := start.Add(time.Duration(i) * interval)
				if due.Sub(start) >= d {
					return
				}
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
				}
				o := w.draw(wc, w.nextClass(wc))
				sent := time.Now()
				// Requests already due and not yet sent, this one aside.
				if b := int(sent.Sub(due) / interval); b > backlog[wc.id] {
					backlog[wc.id] = b
				}
				res, err := wc.c.Exec(o.stmt, o.args)
				done := time.Now()
				if !w.check(wc, &o, res, err, false) {
					failed[wc.id] = true
					return
				}
				samples[wc.id] = append(samples[wc.id], sample{done.Sub(due), sent.Sub(due)})
			}
		}(wc)
	}
	wg.Wait()
	var lats, lates []float64
	maxBacklog := 0
	for c := range samples {
		if failed[c] {
			return fmt.Errorf("open-loop op failed: %v", failures.msgs)
		}
		for _, s := range samples[c] {
			lats = append(lats, micros(s.lat))
			lates = append(lates, micros(s.late))
		}
		maxBacklog = max(maxBacklog, backlog[c])
	}
	st := latencyStats(lats)
	out["client.open.p50_us"] = st.p50
	out["client.open.p95_us"] = st.p95
	out["client.open.late_p95_us"] = percentile(sorted(lates), 0.95)
	out["client.open.backlog_max"] = float64(maxBacklog)
	out["client.open.requests"] = float64(st.n)
	return nil
}

func (w *wire) finish(out metricSet, traced bool, seconds float64) error {
	if !traced {
		return nil
	}
	return w.openLoop(time.Duration(min(seconds, 10)*float64(time.Second)), out)
}

func (w *wire) close() error {
	for _, wc := range w.conns {
		wc.c.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := w.srv.Shutdown(ctx)
	if serr := <-w.served; err == nil {
		err = serr
	}
	return err
}
