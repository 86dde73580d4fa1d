package wal

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"uniqopt/internal/value"
)

// TestKill9Child is the subprocess body: it opens a WAL store in the
// directory named by WAL_CRASH_DIR and inserts rows forever, syncing
// after every insert and printing "ACK <id>" only once the sync — the
// durability barrier — has returned. The parent kills it with
// SIGKILL at an arbitrary moment, so the process dies mid-append,
// mid-sync, or mid-checkpoint with no cleanup whatsoever.
func TestKill9Child(t *testing.T) {
	dir := os.Getenv("WAL_CRASH_DIR")
	if os.Getenv("WAL_CRASH_CHILD") != "1" || dir == "" {
		t.Skip("subprocess body; driven by TestKill9Recovery")
	}
	s, err := Open(dir, Options{CheckpointEvery: 16})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Recover(); err != nil {
		t.Fatal(err)
	}
	ct, err := parseCreate(testDDL)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.ApplyDDL(testDDL, ct); err != nil {
		t.Fatal(err)
	}
	fmt.Println("READY")
	for i := int64(0); ; i++ {
		if err := s.Insert("SUPPLIER", value.Row{value.Int(i), value.String_("S"), value.Int(int64(i % 5))}); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
		if err := s.Sync(); err != nil {
			t.Fatalf("sync %d: %v", i, err)
		}
		fmt.Printf("ACK %d\n", i)
	}
}

// TestKill9Recovery proves the headline crash-safety claim with a
// real unclean death: a child process writes and fsync-acks rows
// until it is SIGKILLed at an arbitrary WAL offset; recovery must
// then restore a prefix of the insert sequence that contains every
// acknowledged row (no lost acks, no phantom rows, torn tail
// truncated) and leave the store writable.
func TestKill9Recovery(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Skip("cannot find test binary:", err)
	}
	// Kill after different ack counts so the death lands in different
	// phases: in the first log, a few seals in (CheckpointEvery=16, so
	// the 60th ack is in the fourth generation), and with nine sealed
	// generations to replay in order before the live one.
	for _, killAfter := range []int{3, 60, 150} {
		t.Run(fmt.Sprintf("killAfter%d", killAfter), func(t *testing.T) {
			dir := t.TempDir()
			cmd := exec.Command(exe, "-test.run", "TestKill9Child", "-test.v")
			cmd.Env = append(os.Environ(), "WAL_CRASH_CHILD=1", "WAL_CRASH_DIR="+dir)
			stdout, err := cmd.StdoutPipe()
			if err != nil {
				t.Fatal(err)
			}
			cmd.Stderr = os.Stderr
			if err := cmd.Start(); err != nil {
				t.Fatal(err)
			}
			defer func() {
				cmd.Process.Kill()
				cmd.Wait()
			}()

			lastAck := int64(-1)
			sc := bufio.NewScanner(stdout)
			deadline := time.After(30 * time.Second)
			acks := 0
		scan:
			for sc.Scan() {
				line := strings.TrimSpace(sc.Text())
				if !strings.HasPrefix(line, "ACK ") {
					continue
				}
				id, err := strconv.ParseInt(strings.TrimPrefix(line, "ACK "), 10, 64)
				if err != nil {
					t.Fatalf("bad ack line %q", line)
				}
				lastAck = id
				acks++
				if acks >= killAfter {
					break scan
				}
				select {
				case <-deadline:
					t.Fatal("child too slow")
				default:
				}
			}
			if acks < killAfter {
				t.Fatalf("child died early: %d acks", acks)
			}
			// The kill races the child's next append/sync/checkpoint:
			// the WAL offset at death is arbitrary by construction.
			if err := cmd.Process.Signal(syscall.SIGKILL); err != nil {
				t.Fatal(err)
			}
			cmd.Wait()

			re, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			if err := re.Recover(); err != nil {
				t.Fatalf("recovery after kill -9: %v", err)
			}
			rows := supplierRows(re)
			// Every acknowledged row must be present...
			if int64(len(rows)) <= lastAck {
				t.Fatalf("lost acknowledged rows: recovered %d, acked through id %d", len(rows), lastAck)
			}
			// ...and the recovered set must be a prefix of the
			// deterministic insert sequence: no phantoms, no gaps.
			for i, row := range rows {
				if row[0].AsInt() != int64(i) {
					t.Fatalf("row %d holds id %d: phantom or reordered row", i, row[0].AsInt())
				}
				if row[2].AsInt() != int64(i%5) {
					t.Fatalf("row %d payload corrupted: %v", i, row)
				}
			}
			// The store must be writable and durable again.
			next := int64(len(rows))
			if err := re.Insert("SUPPLIER", value.Row{value.Int(next), value.String_("S"), value.Int(next % 5)}); err != nil {
				t.Fatalf("insert after recovery: %v", err)
			}
			if err := re.Sync(); err != nil {
				t.Fatalf("sync after recovery: %v", err)
			}
			// One DDL record and one per ack, sixteen to a generation.
			if got, want := re.Generation(), uint64((1+acks)/16+1); got < want {
				t.Errorf("generation %d live after %d acks, want at least %d: the run crossed no seal", got, acks, want)
			}
			t.Logf("killed after %d acks; recovered %d rows (stats: %s)", acks, len(rows), re.Stats())
		})
	}
}
