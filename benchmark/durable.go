package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"uniqopt"
	"uniqopt/internal/storage/wal"
)

// ---- durable_ingest: WAL backend, group commit ----

const (
	// Loaded in set-up, so backfills and rejects have existing suppliers.
	durableBaseSuppliers = 500
	durableBaseParts     = 10
	durableBaseAgents    = 2
	// An append_batch is 2 new suppliers with 30 parts and 1 agent each:
	// 64 single-row INSERTs in ascending key order, then one Sync.
	batchSuppliers = 2
	batchParts     = 30
	batchAgents    = 1
	batchRows      = batchSuppliers * (1 + batchParts + batchAgents)
	// A backfill_batch is 32 agents for random existing suppliers:
	// random-position inserts into the ordered index, then one Sync.
	backfillRows = 32
	// durableWarmup append batches (with their follow-up ops) run before
	// the measured pass.
	durableWarmup = 100
	// durableTraceSteps append batches (with follow-ups) are replayed by
	// the traced pass.
	durableTraceSteps = 300
)

const (
	sqlInsSupplier = `INSERT INTO SUPPLIER VALUES (:SNO, :SNAME, :SCITY, :BUDGET, :STATUS)`
	sqlInsPart     = `INSERT INTO PARTS VALUES (:SNO, :PNO, :PNAME, :OEM, :COLOR)`
	sqlInsAgent    = `INSERT INTO AGENTS VALUES (:SNO, :ANO, :ANAME, :ACITY)`
	sqlPartRead    = `SELECT ALL S.SNO, S.SNAME, P.PNO, P.OEM-PNO FROM SUPPLIER S, PARTS P
		WHERE S.SNO = P.SNO AND P.SNO = :S AND P.PNO = :P`
)

// Class indexes, in workloadDefs order.
const (
	clsAppend = iota
	clsBackfill
	clsReadback
	clsReject
)

// stmtSink inserts through DB.ExecWith. The binding maps are reused: the
// call reads them before it returns.
type stmtSink struct {
	db      *uniqopt.DB
	s, p, a map[string]any
}

func newStmtSink(db *uniqopt.DB) *stmtSink {
	return &stmtSink{db, map[string]any{}, map[string]any{}, map[string]any{}}
}

func (k *stmtSink) exec(sql string, args map[string]any) error {
	n, err := k.db.ExecWith(sql, args)
	if err == nil && n != 1 {
		err = fmt.Errorf("%d rows affected", n)
	}
	return err
}

func (k *stmtSink) supplier(s supplier) error {
	k.s["SNO"], k.s["SNAME"], k.s["SCITY"], k.s["BUDGET"], k.s["STATUS"] = s.sno, s.sname, s.scity, s.budget, s.status
	return k.exec(sqlInsSupplier, k.s)
}

func (k *stmtSink) part(p part) error {
	k.p["SNO"], k.p["PNO"], k.p["PNAME"], k.p["OEM"], k.p["COLOR"] = p.sno, p.pno, p.pname, p.oem, p.color
	return k.exec(sqlInsPart, k.p)
}

func (k *stmtSink) agent(a agent) error {
	k.a["SNO"], k.a["ANO"], k.a["ANAME"], k.a["ACITY"] = a.sno, a.ano, a.aname, a.acity
	return k.exec(sqlInsAgent, k.a)
}

type durable struct {
	def     *workloadDef
	dir     string
	db      *uniqopt.DB
	store   *wal.Store
	data    *dataset
	rng     *rand.Rand
	sink    *stmtSink
	batches int // append batches issued so far

	heap0       uint64 // live heap before the database was opened
	gen         uint64 // last generation seen
	checkpoints int
	stallsUS    []float64 // latency of the batches a checkpoint ran in
	syncsUS     []float64
	passRows    int // rows inserted by the measured pass
	passBytes0  int64
	passWchar0  int64
	passSyncs   int
	measuring   bool
	lastBatch   []int64 // SNOs of the batch just acknowledged
}

func setupDurable(seed int64) (instance, error) {
	d := &durable{def: findWorkload("durable_ingest"), rng: rand.New(rand.NewSource(seed))}
	d.data = generate(seed, durableBaseSuppliers, durableBaseParts, durableBaseAgents)
	d.heap0 = heapInUse()
	var err error
	if d.dir, err = os.MkdirTemp(scratchDir(), "wal-"); err != nil {
		return nil, err
	}
	if d.db, err = uniqopt.OpenPersistent(d.dir, uniqopt.Options{}); err != nil {
		return nil, err
	}
	store, ok := d.db.Backend().(*wal.Store)
	if !ok {
		return nil, fmt.Errorf("durable_ingest: backend is %T, not the WAL store", d.db.Backend())
	}
	d.store = store
	d.sink = newStmtSink(d.db)
	if err := createSchema(d.db); err != nil {
		return nil, err
	}
	if err := createIndexes(d.db); err != nil {
		return nil, err
	}
	if err := d.data.load(d.db); err != nil {
		return nil, err
	}
	if err := d.db.Sync(); err != nil {
		return nil, err
	}
	d.gen = d.store.Generation()
	for i := 0; i < durableWarmup; i++ {
		if !d.step(nil) {
			return nil, fmt.Errorf("durable_ingest: warm-up batch %d failed: %v", i, failures.msgs)
		}
	}
	return d, nil
}

// sync is the group-commit barrier, timed on its own.
func (d *durable) sync() error {
	t0 := time.Now()
	err := d.db.Sync()
	if d.measuring {
		d.syncsUS = append(d.syncsUS, micros(time.Since(t0)))
		d.passSyncs++
	}
	return err
}

// appendRows adds the next batch's suppliers to the record and inserts
// them through sink in ascending key order.
func (d *durable) appendRows(sink rowSink) error {
	d.lastBatch = d.lastBatch[:0]
	for i := 0; i < batchSuppliers; i++ {
		sno := d.data.addSupplier(batchParts, batchAgents)
		d.lastBatch = append(d.lastBatch, sno)
		if err := d.data.send(sink, sno); err != nil {
			return err
		}
	}
	return nil
}

// sendAgents inserts a backfill's agents through sink.
func sendAgents(sink rowSink, as []agent) error {
	for _, a := range as {
		if err := sink.agent(a); err != nil {
			return err
		}
	}
	return nil
}

// backfillAgents draws the next backfill's agents into the record.
func (d *durable) backfillAgents() []agent {
	as := make([]agent, backfillRows)
	for i := range as {
		as[i] = d.data.addAgent(1 + int64(d.rng.Intn(len(d.data.suppliers))))
		d.data.userBytes += as[i].bytes()
	}
	return as
}

// timed runs f, records it under class (when recording), and reports
// whether it succeeded.
func (d *durable) timed(r *recorder, class int, f func() error) (time.Duration, bool) {
	t0 := time.Now()
	err := f()
	lat := time.Since(t0)
	if err != nil {
		noteFailure("%s: %v", d.def.classes[class], err)
	}
	if r != nil {
		r.add(class, t0, lat, err == nil)
	}
	return lat, err == nil
}

// noteGeneration counts checkpoints: the store compacts its log into a
// snapshot inside whichever insert crosses CheckpointEvery, and the
// batch that insert belongs to pays for it.
func (d *durable) noteGeneration(batch time.Duration) {
	if g := d.store.Generation(); g != d.gen {
		if d.measuring {
			d.checkpoints += int(g - d.gen)
			d.stallsUS = append(d.stallsUS, micros(batch))
		}
		d.gen = g
	}
}

// readbackOp draws the key-bound join on a row of the batch just
// acknowledged; it must return exactly that row.
func (d *durable) readbackOp() op {
	sno := d.lastBatch[d.rng.Intn(len(d.lastBatch))]
	pno := 1 + int64(d.rng.Intn(batchParts))
	return op{class: clsReadback, sql: sqlPartRead, args: map[string]any{"S": sno, "P": pno}, want: d.data.partRead(sno, pno)}
}

// reject offers one duplicate-key and one dangling-foreign-key INSERT;
// the op is correct only if both are refused.
func (d *durable) reject() error {
	dup := d.data.suppliers[d.rng.Intn(len(d.data.suppliers))]
	if err := d.sink.supplier(dup); err == nil {
		return fmt.Errorf("duplicate SUPPLIER %d accepted", dup.sno)
	}
	orphan := makePart(d.data.seed, int64(len(d.data.suppliers))+1_000_000, 1)
	if err := d.sink.part(orphan); err == nil {
		return fmt.Errorf("PARTS row for missing supplier %d accepted", orphan.sno)
	}
	return nil
}

// step issues the next append_batch and the ops that follow it: a
// readback after every 2nd, a backfill_batch after every 4th, a reject
// after every 8th.
func (d *durable) step(r *recorder) bool {
	b := d.batches
	d.batches++
	lat, ok := d.timed(r, clsAppend, func() error {
		if err := d.appendRows(d.sink); err != nil {
			return err
		}
		return d.sync()
	})
	d.noteGeneration(lat)
	if d.measuring {
		d.passRows += batchRows
	}
	if b%2 == 1 {
		o := d.readbackOp()
		t0 := time.Now()
		rows, err := d.db.QueryWithContext(context.Background(), o.sql, o.args, true)
		lat := time.Since(t0)
		var data [][]any
		if rows != nil {
			data = rows.Data
		}
		rok := verify("readback", &o, data, err)
		if r != nil {
			r.add(clsReadback, t0, lat, rok)
		}
		ok = ok && rok
	}
	if b%4 == 3 {
		as := d.backfillAgents()
		lat, bok := d.timed(r, clsBackfill, func() error {
			if err := sendAgents(d.sink, as); err != nil {
				return err
			}
			return d.sync()
		})
		d.noteGeneration(lat)
		if d.measuring {
			d.passRows += backfillRows
		}
		ok = ok && bok
	}
	if b%8 == 7 {
		_, jok := d.timed(r, clsReject, d.reject)
		ok = ok && jok
	}
	return ok
}

func (d *durable) clients() int { return 1 }

func (d *durable) run(_ int, r *recorder, until time.Time) {
	d.measuring = true
	d.passBytes0, d.passWchar0 = d.data.userBytes, writtenBytes()
	for time.Now().Before(until) {
		d.step(r)
	}
	d.measuring = false
}

func (d *durable) afterPass(out metricSet) {
	out["wal.checkpoints"] = float64(d.checkpoints)
	out["wal.checkpoint_stall_ms"] = median(d.stallsUS) / 1e3
	syncs := sorted(d.syncsUS)
	out["wal.sync_us"] = percentile(syncs, 0.50)
	out["wal.sync_p95_us"] = percentile(syncs, 0.95)
	if d.passRows > 0 {
		out["wal.syncs_per_krow"] = float64(d.passSyncs) / float64(d.passRows) * 1000
	}
	if user := d.data.userBytes - d.passBytes0; user > 0 {
		out["wal.written_bytes_per_user_byte"] = float64(writtenBytes()-d.passWchar0) / float64(user)
	}
	out["wal.disk_bytes_per_user_byte"] = float64(dirBytes(d.dir)) / float64(d.data.userBytes)
	out["storage.heap_bytes_per_user_byte"] = float64(heapInUse()-d.heap0) / float64(d.data.userBytes)
	out["metrics.shapes"] = float64(len(d.db.Metrics().Shapes))
	out["durable.rows"] = float64(d.data.rowCount())
}

// trace replays the next steps of the sequence with the layers pulled
// apart. Every row also goes, through InsertRow, into a memory-backend
// shadow with the same schema, indexes and contents: that is the
// storage layer's share. Append batches alternate between the
// workload's INSERT statements and InsertRow on the WAL database: the
// difference is the statement layer's share, and InsertRow on the WAL
// database less InsertRow on the shadow is the log's.
func (d *durable) trace(t *tracer, out metricSet) error {
	shadow := uniqopt.Open()
	if err := createSchema(shadow); err != nil {
		return err
	}
	if err := createIndexes(shadow); err != nil {
		return err
	}
	if err := d.data.load(shadow); err != nil {
		return fmt.Errorf("load shadow: %w", err)
	}
	mem := apiSink{shadow}
	ctx := context.Background()
	d.rng = traceRand(d.data.seed)
	id := 0
	next := func(class int) (int, string, int) {
		name := d.def.classes[class]
		root := t.begin(id, name, "op", -1)
		id++
		return id - 1, name, root
	}
	// span times the inserts of rows rows under name; its duration over
	// rows is the per-row cost.
	span := func(oid int, class, name string, root, rows int, f func() error) error {
		s := t.begin(oid, class, name, root)
		err := f()
		t.end(s)
		t.spans[s].RowsIn = int64(rows)
		return err
	}
	for step := 0; step < durableTraceSteps && t.more(id); step++ {
		b := d.batches
		d.batches++
		oid, name, root := next(clsAppend)
		var err error
		if step%2 == 0 {
			err = span(oid, name, "sql.exec_rows", root, batchRows, func() error { return d.appendRows(d.sink) })
		} else {
			err = span(oid, name, "wal.insert_rows", root, batchRows, func() error { return d.appendRows(apiSink{d.db}) })
		}
		if err == nil {
			err = span(oid, name, "wal.sync", root, 0, d.db.Sync)
		}
		if err == nil {
			err = span(oid, name, "storage.insert_ordered_rows", root, batchRows, func() error {
				for _, sno := range d.lastBatch {
					if err := d.data.send(mem, sno); err != nil {
						return err
					}
				}
				return nil
			})
		}
		t.end(root)
		if err != nil {
			return fmt.Errorf("traced append_batch: %w", err)
		}
		d.gen = d.store.Generation()

		if b%2 == 1 {
			oid, name, root := next(clsReadback)
			ok := probeQuery(ctx, t, d.db, oid, name, root, d.readbackOp)
			t.end(root)
			if !ok {
				return fmt.Errorf("traced readback failed: %v", failures.msgs)
			}
		}
		if b%4 == 3 {
			oid, name, root := next(clsBackfill)
			as := d.backfillAgents()
			err := span(oid, name, "sql.exec_rows", root, backfillRows, func() error { return sendAgents(d.sink, as) })
			if err == nil {
				err = span(oid, name, "wal.sync", root, 0, d.db.Sync)
			}
			if err == nil {
				err = span(oid, name, "storage.insert_random_rows", root, backfillRows, func() error { return sendAgents(mem, as) })
			}
			t.end(root)
			if err != nil {
				return fmt.Errorf("traced backfill_batch: %w", err)
			}
		}
		if b%8 == 7 {
			oid, name, root := next(clsReject)
			err := span(oid, name, "sql.exec_rows", root, 2, d.reject)
			t.end(root)
			if err != nil {
				return fmt.Errorf("traced reject: %w", err)
			}
		}
	}
	d.reportRows(t, out)
	return nil
}

// perRowUS is the median, over the spans called name in class, of
// duration per row, in microseconds.
func perRowUS(t *tracer, name, class string) float64 {
	var xs []float64
	for _, s := range t.spans {
		if s.Name == name && (class == "" || s.Class == class) && s.RowsIn > 0 {
			xs = append(xs, float64(s.End-s.Start)/1e3/float64(s.RowsIn))
		}
	}
	return median(xs)
}

// reportRows derives the per-row layer costs from the traced pass.
func (d *durable) reportRows(t *tracer, out metricSet) {
	ordered := perRowUS(t, "storage.insert_ordered_rows", "")
	random := perRowUS(t, "storage.insert_random_rows", "")
	out["storage.insert_ordered_us_per_row"] = ordered
	out["storage.insert_random_us_per_row"] = random
	// All rows: the two kinds weighted by their share of the row stream.
	perStep := float64(batchRows) + float64(backfillRows)/4
	out["storage.insert_us_per_row"] = (ordered*batchRows + random*backfillRows/4) / perStep
	viaAPI := perRowUS(t, "wal.insert_rows", "append_batch")
	out["wal.append_us_per_row"] = max(viaAPI-ordered, 0)
	out["sql.insert_stmt_us_per_row"] = max(perRowUS(t, "sql.exec_rows", "append_batch")-viaAPI, 0)
}

// finish runs the durability check and reads the recovery figures off
// the reopened copy.
func (d *durable) finish(out metricSet, _ bool, _ float64) error {
	return d.durabilityCheck(out)
}

// durabilityCheck proves that what was acknowledged survives a crash
// that loses everything not yet flushed. After the last acknowledged
// Sync it notes the live log's length, writes 100 more rows without a
// Sync, and copies the data directory with that log cut back to the
// noted length: the copy holds exactly the bytes that were flushed when
// the last acknowledgement was given, so unflushed writes are discarded
// by the test and not by luck. Reopening the copy must find every
// acknowledged row and none of the 100.
func (d *durable) durabilityCheck(out metricSet) error {
	// A checkpoint now keeps one from running inside the unflushed
	// writes below, which would (rightly) make them durable.
	if err := d.db.Checkpoint(); err != nil {
		return err
	}
	if err := d.appendRows(d.sink); err != nil {
		return err
	}
	if err := d.db.Sync(); err != nil {
		return err
	}
	ackedRows := d.data.rowCount()
	ackedSuppliers := len(d.data.suppliers)
	logName := fmt.Sprintf("wal-%d.log", d.store.Generation())
	info, err := os.Stat(filepath.Join(d.dir, logName))
	if err != nil {
		return err
	}
	ackedLen := info.Size()

	// 100 unacknowledged agents with long names, so they overflow the
	// log's write buffer and some of their bytes do reach the file.
	var unacked []agent
	for i := 0; i < 100; i++ {
		a := makeAgent(d.data.seed, 1+int64(d.rng.Intn(ackedSuppliers)), 1_000_000+int64(i))
		a.aname = strings.Repeat("x", 1024)
		if err := d.db.InsertRow("AGENTS", a.row()); err != nil {
			return err
		}
		unacked = append(unacked, a)
	}
	info, err = os.Stat(filepath.Join(d.dir, logName))
	if err != nil {
		return err
	}
	if info.Size() <= ackedLen {
		return fmt.Errorf("durability check: no unflushed bytes reached %s; the truncation would prove nothing", logName)
	}

	crashed, err := os.MkdirTemp(scratchDir(), "crashed-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(crashed)
	entries, err := os.ReadDir(d.dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		limit := int64(-1)
		if e.Name() == logName {
			limit = ackedLen
		}
		if err := copyFile(filepath.Join(d.dir, e.Name()), filepath.Join(crashed, e.Name()), limit); err != nil {
			return err
		}
	}

	// The original is done; release it before the copy is loaded so the
	// process never holds both heaps.
	data := d.data
	if err := d.db.Close(); err != nil {
		return err
	}
	d.db, d.store, d.sink = nil, nil, nil
	runtime.GC()
	debug.FreeOSMemory()

	re, err := uniqopt.OpenPersistent(crashed, uniqopt.Options{})
	if err != nil {
		return fmt.Errorf("durability check: reopen: %w", err)
	}
	defer re.Close()
	st := re.Backend().(*wal.Store).Stats()
	out["wal.recover_ms"] = float64(st.Duration.Nanoseconds()) / 1e6
	out["wal.snapshot_rows"] = float64(st.SnapshotRows)
	out["wal.replayed_rows"] = float64(st.ReplayedRows)
	if st.Duration > 0 {
		out["wal.recover_krows_per_s"] = float64(st.SnapshotRows+st.ReplayedRows) / 1e3 / st.Duration.Seconds()
	}
	if got := st.SnapshotRows + st.ReplayedRows; got != ackedRows {
		return fmt.Errorf("durability check: recovered %d rows, %d were acknowledged", got, ackedRows)
	}
	// Indexes are not logged; the deployment rebuilds them after recovery.
	t0 := time.Now()
	if err := createIndexes(re); err != nil {
		return err
	}
	out["storage.index_rebuild_ms"] = float64(time.Since(t0).Nanoseconds()) / 1e6

	ctx := context.Background()
	for i := 0; i < 1000; i++ {
		sno := 1 + int64(d.rng.Intn(ackedSuppliers))
		var o op
		if i%2 == 0 {
			pno := 1 + int64(d.rng.Intn(len(data.parts[sno-1])))
			o = op{sql: sqlPartRead, args: map[string]any{"S": sno, "P": pno}, want: data.partRead(sno, pno)}
		} else {
			ano := 1 + int64(d.rng.Intn(len(data.agents[sno-1])))
			o = op{sql: sqlAgentRead, args: map[string]any{"S": sno, "A": ano}, want: data.agentRead(sno, ano)}
		}
		rows, err := re.QueryWithContext(ctx, o.sql, o.args, true)
		if err != nil {
			return fmt.Errorf("durability check: lookup: %w", err)
		}
		if !verify("durability lookup", &o, rows.Data, nil) {
			return fmt.Errorf("durability check: acknowledged row missing after recovery: %v", failures.msgs)
		}
	}
	for _, a := range unacked {
		rows, err := re.QueryWithContext(ctx, sqlAgentRead, map[string]any{"S": a.sno, "A": a.ano}, true)
		if err != nil {
			return err
		}
		if len(rows.Data) != 0 {
			return fmt.Errorf("durability check: unacknowledged agent %d/%d survived the crash", a.sno, a.ano)
		}
	}
	out["durable.acked_rows"] = float64(ackedRows)
	return nil
}

// copyFile copies src to dst; a non-negative limit copies only that many
// leading bytes.
func copyFile(src, dst string, limit int64) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	var r io.Reader = in
	if limit >= 0 {
		r = io.LimitReader(in, limit)
	}
	if _, err := io.Copy(out, r); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

func (d *durable) close() error {
	var err error
	if d.db != nil {
		err = d.db.Close()
	}
	if rerr := os.RemoveAll(d.dir); err == nil {
		err = rerr
	}
	return err
}
