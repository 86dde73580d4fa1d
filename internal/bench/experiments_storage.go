package bench

import (
	"fmt"
	"os"
	"time"

	"uniqopt"
	"uniqopt/internal/storage/wal"
	"uniqopt/internal/value"
)

// storageDDL is the bulk-load table: a keyed heap wide enough that
// frames carry a realistic mix of integer and string payload.
const storageDDL = `CREATE TABLE BULK (ID INTEGER, PAYLOAD VARCHAR, GRP INTEGER, PRIMARY KEY (ID))`

// bulkRow builds row i of the load.
func bulkRow(i int) value.Row {
	return value.Row{value.Int(int64(i)), value.String_(fmt.Sprintf("payload-%08d", i)), value.Int(int64(i % 97))}
}

// loadRows drives rows through db's constraint-enforcing insert path,
// syncing every groupEvery inserts (0 = never; the final sync is
// always issued). It returns the wall time and the number of syncs.
func loadRows(db *uniqopt.DB, rows, groupEvery int) (time.Duration, int64) {
	start := time.Now()
	syncs := int64(0)
	for i := 0; i < rows; i++ {
		if err := db.InsertRow("BULK", bulkRow(i)); err != nil {
			panic(fmt.Sprintf("bench: EStorage insert %d: %v", i, err))
		}
		if groupEvery > 0 && (i+1)%groupEvery == 0 {
			if err := db.Sync(); err != nil {
				panic(fmt.Sprintf("bench: EStorage sync: %v", err))
			}
			syncs++
		}
	}
	if err := db.Sync(); err != nil {
		panic(fmt.Sprintf("bench: EStorage final sync: %v", err))
	}
	return time.Since(start), syncs + 1
}

// EStorage — the cost of crash safety. The same keyed bulk load runs
// against the in-memory backend and the WAL backend in the two ack
// disciplines the server supports: group commit (sync every 1024
// rows, the bulk-load shape) and fsync-per-insert (the per-statement
// ack the wire protocol gives every INSERT). The WAL directory is
// then reopened cold and the recovery time — the sealed generations
// and then the live log replayed through the same insert path — is
// measured.
func EStorage(sc Scale) *Table {
	t := &Table{
		ID:      "EST",
		Title:   "storage backends — insert throughput and cold-start recovery, memory vs write-ahead log",
		Columns: []string{"leg", "rows", "wall ms", "krows/s", "fsyncs", "detail"},
	}
	rows := sc.size(1_000_000)
	ackRows := rows / 50
	if ackRows < 4 {
		ackRows = 4
	}
	msCell := func(d time.Duration) string { return fmt.Sprintf("%.1f", float64(d.Nanoseconds())/1e6) }
	rate := func(rows int, d time.Duration) string {
		return fmt.Sprintf("%.1f", float64(rows)/1e3/d.Seconds())
	}

	// Leg 1: in-memory backend (Sync is a no-op).
	mem := uniqopt.Open()
	if err := mem.Exec(storageDDL); err != nil {
		panic(fmt.Sprintf("bench: EStorage DDL: %v", err))
	}
	memWall, _ := loadRows(mem, rows, 0)
	t.AddRow("memory", n(int64(rows)), msCell(memWall), rate(rows, memWall), "0", "volatile baseline")

	// Leg 2: WAL backend, group commit every 1024 rows.
	dir, err := os.MkdirTemp("", "uniqopt-bench-wal-*")
	if err != nil {
		panic(fmt.Sprintf("bench: EStorage tempdir: %v", err))
	}
	defer os.RemoveAll(dir)
	walDB, err := uniqopt.OpenPersistent(dir, uniqopt.Options{})
	if err != nil {
		panic(fmt.Sprintf("bench: EStorage open wal: %v", err))
	}
	if err := walDB.Exec(storageDDL); err != nil {
		panic(fmt.Sprintf("bench: EStorage wal DDL: %v", err))
	}
	walWall, walSyncs := loadRows(walDB, rows, 1024)
	if err := walDB.Close(); err != nil {
		panic(fmt.Sprintf("bench: EStorage close wal: %v", err))
	}
	t.AddRow("wal group-commit", n(int64(rows)), msCell(walWall), rate(rows, walWall),
		n(walSyncs), "sync every 1024 rows")

	// Leg 3: WAL backend, fsync-per-insert (the wire protocol's
	// per-INSERT ack), on a reduced row count — each row pays a flush
	// and an fsync.
	ackDir, err := os.MkdirTemp("", "uniqopt-bench-ack-*")
	if err != nil {
		panic(fmt.Sprintf("bench: EStorage tempdir: %v", err))
	}
	defer os.RemoveAll(ackDir)
	ackDB, err := uniqopt.OpenPersistent(ackDir, uniqopt.Options{})
	if err != nil {
		panic(fmt.Sprintf("bench: EStorage open ack: %v", err))
	}
	if err := ackDB.Exec(storageDDL); err != nil {
		panic(fmt.Sprintf("bench: EStorage ack DDL: %v", err))
	}
	ackWall, ackSyncs := loadRows(ackDB, ackRows, 1)
	if err := ackDB.Close(); err != nil {
		panic(fmt.Sprintf("bench: EStorage close ack: %v", err))
	}
	t.AddRow("wal fsync/insert", n(int64(ackRows)), msCell(ackWall), rate(ackRows, ackWall),
		n(ackSyncs), "per-statement ack")

	// Leg 4: cold start on the group-commit directory — sealed
	// generations, then the live log, replayed through the
	// constraint-enforcing insert path.
	start := time.Now()
	reDB, err := uniqopt.OpenPersistent(dir, uniqopt.Options{})
	if err != nil {
		panic(fmt.Sprintf("bench: EStorage reopen: %v", err))
	}
	coldWall := time.Since(start)
	detail := "recovery stats unavailable"
	recovered := rows
	if ws, ok := reDB.Backend().(*wal.Store); ok {
		st := ws.Stats()
		recovered = st.SnapshotRows + st.ReplayedRows
		detail = fmt.Sprintf("gen %d: sealed %d rows + replayed %d", st.Generation, st.SnapshotRows, st.ReplayedRows)
	}
	if err := reDB.Close(); err != nil {
		panic(fmt.Sprintf("bench: EStorage close reopen: %v", err))
	}
	t.AddRow("cold-start recovery", n(int64(recovered)), msCell(coldWall), rate(recovered, coldWall),
		"1", detail)

	t.Notes = append(t.Notes,
		"all legs run the same constraint-enforcing insert path (primary-key hash index maintained row by row); the WAL legs additionally frame, checksum, and buffer every record.",
		fmt.Sprintf("group commit syncs every 1024 rows — the bulk-load discipline; fsync/insert is the wire protocol's per-INSERT ack, shown at %d rows because each row pays a flush+fsync.", ackRows),
		fmt.Sprintf("cold start reopens the group-commit directory: checkpoints every %d appends mean most rows return from sealed generations, the tail from the live log; both replay through the insert path.", wal.DefaultOptions.CheckpointEvery),
		"fsyncs counts Sync barriers issued (the final close-time sync included).")
	return t
}
