package main

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"uniqopt/internal/server/client"
	"uniqopt/internal/testleak"
)

// bootDaemon runs the daemon with args and waits for its listener.
func bootDaemon(t *testing.T, args []string) (h daemonHandle, out *strings.Builder, wait func() int) {
	t.Helper()
	ready := make(chan daemonHandle, 1)
	out = &strings.Builder{}
	var errOut strings.Builder
	var wg sync.WaitGroup
	wg.Add(1)
	var code int
	go func() {
		defer wg.Done()
		code = run(args, out, &errOut, ready)
	}()
	select {
	case h = <-ready:
	case <-time.After(10 * time.Second):
		t.Fatalf("daemon never became ready; stderr:\n%s", errOut.String())
	}
	return h, out, func() int {
		wg.Wait()
		if errOut.Len() > 0 {
			t.Logf("daemon stderr:\n%s", errOut.String())
		}
		return code
	}
}

// TestDaemonDataDirPersists boots the daemon on a data directory,
// writes through the wire, shuts down, boots a second daemon on the
// same directory, and finds the data recovered — the -data flag's
// end-to-end contract. It also exercises the background-recovery
// path: the second boot's HELLO may race replay, and DialRetry plus
// the recovering status make that race observable instead of flaky.
func TestDaemonDataDirPersists(t *testing.T) {
	warmSignalLoop()
	testleak.Check(t)
	dir := t.TempDir()

	h, out, wait := bootDaemon(t, []string{"-addr", "127.0.0.1:0", "-data", dir})
	c, err := client.DialRetry(h.Addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Background recovery of an empty directory is near-instant but
	// asynchronous; poll the status rather than assuming.
	status := c.Info().Status
	for deadline := time.Now().Add(10 * time.Second); status != "ready"; {
		if time.Now().After(deadline) {
			t.Fatalf("daemon stuck in status %q", status)
		}
		time.Sleep(10 * time.Millisecond)
		info, err := c.Refresh()
		if err != nil {
			t.Fatal(err)
		}
		status = info.Status
	}
	if _, err := c.Query(`CREATE TABLE T (A INTEGER, PRIMARY KEY (A))`); err != nil {
		t.Fatal(err)
	}
	res, err := c.Query(`INSERT INTO T VALUES (1), (2), (3)`)
	if err != nil || res.RowsAffected != 3 {
		t.Fatalf("insert: res=%+v err=%v", res, err)
	}
	c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := h.Srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if code := wait(); code != 0 {
		t.Fatalf("first daemon exited %d; output:\n%s", code, out.String())
	}

	h2, out2, wait2 := bootDaemon(t, []string{"-addr", "127.0.0.1:0", "-data", dir})
	c2, err := client.DialRetry(h2.Addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var rows *client.Result
	for deadline := time.Now().Add(10 * time.Second); ; {
		rows, err = c2.Query(`SELECT ALL A FROM T`)
		if err == nil {
			break
		}
		re, ok := err.(*client.RemoteError)
		if !ok || re.Code != "recovering" || time.Now().After(deadline) {
			t.Fatal(err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if len(rows.Rows) != 3 {
		t.Fatalf("recovered %d rows, want 3", len(rows.Rows))
	}
	c2.Close()
	ctx2, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	if err := h2.Srv.Shutdown(ctx2); err != nil {
		t.Fatal(err)
	}
	if code := wait2(); code != 0 {
		t.Fatalf("second daemon exited %d", code)
	}
	if !strings.Contains(out2.String(), "recovered") {
		t.Fatalf("second boot output lacks recovery line:\n%s", out2.String())
	}
}

// TestDaemonDataDirSkipsDemoWhenRecovered proves -load demo does not
// clobber or duplicate a recovered database.
func TestDaemonDataDirSkipsDemoWhenRecovered(t *testing.T) {
	warmSignalLoop()
	testleak.Check(t)
	dir := t.TempDir()

	// First boot: empty dir, demo loads.
	h, _, wait := bootDaemon(t, []string{"-addr", "127.0.0.1:0", "-data", dir, "-load", "demo"})
	c, err := client.DialRetry(h.Addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// waitRows polls until the suppliers number want or the deadline
	// passes, and returns the last count: an error-free answer can still
	// be a partial one while the background demo load is mid-way.
	waitRows := func(c *client.Client, want int) int {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); ; {
			res, err := c.Query(`SELECT DISTINCT S.SNO FROM SUPPLIER S`)
			if err == nil && (len(res.Rows) == want || time.Now().After(deadline)) {
				return len(res.Rows)
			}
			if err != nil {
				re, ok := err.(*client.RemoteError)
				if !ok || (re.Code != "recovering" && re.Code != "sql") || time.Now().After(deadline) {
					t.Fatal(err)
				}
				// "sql" covers the window after replay but before the
				// demo load defines SUPPLIER.
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	first := waitRows(c, 25)
	if first != 25 {
		t.Fatalf("demo suppliers = %d, want 25", first)
	}
	c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := h.Srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	wait()

	// Second boot with -load demo again: tables exist, load skipped.
	h2, _, wait2 := bootDaemon(t, []string{"-addr", "127.0.0.1:0", "-data", dir, "-load", "demo"})
	c2, err := client.DialRetry(h2.Addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := waitRows(c2, 25); got != 25 {
		t.Fatalf("after reboot suppliers = %d, want 25 (demo reloaded?)", got)
	}
	c2.Close()
	ctx2, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	if err := h2.Srv.Shutdown(ctx2); err != nil {
		t.Fatal(err)
	}
	wait2()
}
