// Package wal is the golden fixture for the filelife analyzer: it
// mirrors the write-ahead log's file handling so both rules — every
// opened *os.File closed on all paths, every raw file write fsynced
// before a success return — have positive and negative cases,
// including the interprocedural shapes (helpers that close, sync, or
// merely borrow).
package wal

import (
	"fmt"
	"os"
)

// --- rule 1: close on all paths -------------------------------------

// leakNoClose opens a file and returns success without ever closing
// it: the canonical descriptor leak.
func leakNoClose(path string) error {
	f, err := os.Open(path) // want "opened here can reach function exit without being closed"
	if err != nil {
		return err
	}
	_ = f.Name()
	return nil
}

// leakOnEarlyReturn closes on the long path but not on the shortcut:
// exactly one path leaks, which is all the CFG needs.
func leakOnEarlyReturn(path string, fast bool) error {
	f, err := os.Open(path) // want "opened here can reach function exit without being closed"
	if err != nil {
		return err
	}
	if fast {
		return nil
	}
	return f.Close()
}

// leakPastBorrow hands the file to a helper the summaries prove only
// borrows it — the close obligation stays here, undischarged.
func leakPastBorrow(path string) error {
	f, err := os.Open(path) // want "opened here can reach function exit without being closed"
	if err != nil {
		return err
	}
	borrow(f)
	return nil
}

// borrow reads the file's name and hands nothing back: it neither
// closes nor retains its parameter.
func borrow(f *os.File) {
	_ = f.Name()
}

// goodDefer is the canonical clean shape.
func goodDefer(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	_ = f.Name()
	return nil
}

// goodAllPaths closes explicitly on the error path and the success
// path.
func goodAllPaths(path string) error {
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return err
	}
	if err := f.Truncate(0); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// goodReturned transfers ownership to the caller.
func goodReturned(path string) (*os.File, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return f, nil
}

// holder stands in for logFile: a struct that owns the descriptor.
type holder struct{ f *os.File }

// goodStored hands the file off into a struct; the holder owns it
// now.
func goodStored(path string) (*holder, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	return &holder{f: f}, nil
}

// goodClosureCleanup mirrors writeManifest's fail-closure pattern:
// every error path funnels through a literal that closes the temp
// file, and the function reports beside its error whether it got as
// far as committing.
func goodClosureCleanup(dir string) (committed bool, err error) {
	tmp, err := os.CreateTemp(dir, "x-*.tmp")
	if err != nil {
		return false, err
	}
	fail := func(err error) error {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if _, err := tmp.WriteString("hdr"); err != nil {
		return false, fail(err)
	}
	if err := tmp.Sync(); err != nil {
		return false, fail(err)
	}
	return true, tmp.Close()
}

// closeQuietly closes its argument; callers passing a file here have
// discharged the obligation interprocedurally.
func closeQuietly(f *os.File) {
	f.Close()
}

// goodViaHelper discharges through closeQuietly's summary.
func goodViaHelper(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	_ = f.Name()
	closeQuietly(f)
	return nil
}

// --- rule 2: raw writes reach an fsync before success ---------------

// badRawWrite acknowledges bytes that only ever reached the page
// cache.
func badRawWrite(f *os.File, b []byte) error {
	if _, err := f.Write(b); err != nil { // want "raw .os.File write can reach a success return without an fsync"
		return err
	}
	return nil
}

// goodSyncAfter fsyncs before the success return.
func goodSyncAfter(f *os.File, b []byte) error {
	if _, err := f.Write(b); err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		return err
	}
	return nil
}

// flushSync is the in-package durability helper.
func flushSync(f *os.File) error {
	return f.Sync()
}

// goodViaSyncHelper discharges the fsync through flushSync's summary.
func goodViaSyncHelper(f *os.File, b []byte) error {
	if _, err := f.WriteString(string(b)); err != nil {
		return err
	}
	return flushSync(f)
}

// goodDeferredSync covers every exit with a deferred transitive sync.
func goodDeferredSync(f *os.File, b []byte) error {
	defer flushSync(f)
	if _, err := f.Write(b); err != nil {
		return err
	}
	return nil
}

// goodFailureOnly mirrors the torn-write fault path: the raw write is
// always followed by a failure return, so nothing is promised.
func goodFailureOnly(f *os.File, b []byte) error {
	if injected() {
		if _, err := f.Write(b[:len(b)/2]); err != nil {
			return err
		}
		return fmt.Errorf("short write injected")
	}
	return nil
}

func injected() bool { return true }
