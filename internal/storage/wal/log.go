package wal

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"uniqopt/internal/fault"
	"uniqopt/internal/value"
)

// Fault points the WAL write and checkpoint paths honor. The matrix
// test arms each of them and asserts recovery restores exactly the
// acknowledged prefix.
const (
	// FaultAppend fails an append cleanly, before any bytes move.
	FaultAppend = "wal.append"
	// FaultAppendShort tears a frame: half its bytes reach the file,
	// then the write "fails" — the torn-tail shape a crash leaves.
	FaultAppendShort = "wal.append.short"
	// FaultAppendCorrupt flips one bit in a frame payload after the
	// checksum is computed, then lets the write "succeed" — silent
	// media corruption that only the CRC can catch later.
	FaultAppendCorrupt = "wal.append.corrupt"
	// FaultSync fails the flush+fsync making appends durable.
	FaultSync = "wal.sync"
	// FaultCheckpointNewLog / FaultCheckpointSnapshot /
	// FaultCheckpointRename fail the three stages of the checkpoint
	// protocol — creating the next log, writing the manifest's temp
	// file, renaming it into place; all leave the previous generation
	// live.
	FaultCheckpointNewLog   = "wal.checkpoint.newlog"
	FaultCheckpointSnapshot = "wal.checkpoint.snapshot"
	FaultCheckpointRename   = "wal.checkpoint.rename"
)

func init() {
	fault.Register(FaultAppend, FaultAppendShort, FaultAppendCorrupt,
		FaultSync, FaultCheckpointNewLog, FaultCheckpointSnapshot,
		FaultCheckpointRename)
}

// logFile is one open generation of the append-only log. Appends are
// buffered; sync flushes the buffer and fsyncs, which is the
// durability point acknowledgements wait for.
type logFile struct {
	f     *os.File
	bw    *bufio.Writer
	path  string
	gen   uint64
	dirty bool   // bytes appended since the last sync
	buf   []byte // the frame being built; one writer, under Store.mu
}

// newLogWriter sizes the append buffer: large enough to group-commit
// bulk loads, small enough that a crash loses little unacked work.
func newLogWriter(f *os.File) *bufio.Writer { return bufio.NewWriterSize(f, 1<<16) }

func walName(gen uint64) string { return fmt.Sprintf("wal-%d.log", gen) }

func walPath(dir string, gen uint64) string { return filepath.Join(dir, walName(gen)) }

// parseWalName extracts the generation from a wal-<gen>.log name.
func parseWalName(name string) (uint64, bool) {
	var gen uint64
	if _, err := fmt.Sscanf(name, "wal-%d.log", &gen); err != nil {
		return 0, false
	}
	if name != walName(gen) {
		return 0, false
	}
	return gen, true
}

// createLog creates a fresh generation file with its header and
// fsyncs it (file and directory) before returning.
func createLog(dir string, gen uint64) (*logFile, error) {
	path := walPath(dir, gen)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	l := &logFile{f: f, bw: newLogWriter(f), path: path, gen: gen}
	var hdr [headerLen]byte
	copy(hdr[:8], logMagic)
	binary.BigEndian.PutUint64(hdr[8:], gen)
	if _, err := l.bw.Write(hdr[:]); err != nil {
		f.Close()
		return nil, err
	}
	if err := l.sync(); err != nil {
		f.Close()
		return nil, err
	}
	if err := syncDir(dir); err != nil {
		f.Close()
		return nil, err
	}
	return l, nil
}

// frame returns the log's scratch buffer holding an empty frame header
// for the caller to append one record's payload to and hand to append:
// header and payload are built in one buffer the log reuses.
func (l *logFile) frame() []byte { return append(l.buf[:0], make([]byte, frameHdrLen)...) }

// append completes the frame built on l.frame() and moves it into the
// write buffer. The record is durable only after a later sync. Fault
// points model the three ways a disk lies: clean failure, torn write,
// silent corruption.
func (l *logFile) append(frame []byte) error {
	if cap(frame) <= 1<<16 {
		l.buf = frame // keep what it grew to, unless one huge row grew it
	}
	if err := fault.Point(FaultAppend); err != nil {
		return fmt.Errorf("wal: append %s: %w", l.path, err)
	}
	finishFrame(frame)
	if fault.Fires(FaultAppendCorrupt) {
		frame[frameHdrLen+(len(frame)-frameHdrLen)/2] ^= 0x40
	}
	if fault.Fires(FaultAppendShort) {
		// Tear the frame: bypass the buffer so exactly half the bytes
		// land in the file, then report failure — the on-disk shape a
		// power cut leaves behind.
		if err := l.bw.Flush(); err != nil {
			return err
		}
		if _, err := l.f.Write(frame[:len(frame)/2]); err != nil {
			return err
		}
		return fmt.Errorf("wal: append %s: short write: %w", l.path, fault.ErrInjected)
	}
	if _, err := l.bw.Write(frame); err != nil {
		return fmt.Errorf("wal: append %s: %w", l.path, err)
	}
	l.dirty = true
	return nil
}

// sync flushes buffered frames and fsyncs the file: the durability
// barrier acknowledgements wait behind.
func (l *logFile) sync() error {
	if err := l.bw.Flush(); err != nil {
		return fmt.Errorf("wal: flush %s: %w", l.path, err)
	}
	if err := fault.Point(FaultSync); err != nil {
		return fmt.Errorf("wal: fsync %s: %w", l.path, err)
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: fsync %s: %w", l.path, err)
	}
	l.dirty = false
	return nil
}

// close flushes, fsyncs, and closes the file.
func (l *logFile) close() error {
	err := l.sync()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// syncDir fsyncs a directory so renames and creates within it are
// durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// scanOutcome reports what replaying a log found.
type scanOutcome struct {
	records   int   // valid records delivered
	goodSize  int64 // offset just past the last valid frame
	torn      bool  // a torn tail was detected after goodSize
	tornBytes int64 // bytes past goodSize (truncated by recovery)
}

// scanLog reads every frame of the log at path, delivering decoded
// records to fn in order; every insert record's row is decoded into the
// same buffer, so fn must not keep it. It distinguishes the two ways a
// log ends badly: a torn tail (an incomplete final frame — the normal
// residue of a crash between write and fsync) is reported in the
// outcome so the caller can truncate it, while a corrupt frame in the
// interior (or a checksum mismatch not at EOF) aborts with ErrCorrupt,
// since everything after it was once durable and cannot be trusted.
func scanLog(path string, wantGen uint64, fn func(record) error) (scanOutcome, error) {
	var out scanOutcome
	f, err := os.Open(path)
	if err != nil {
		return out, err
	}
	defer f.Close()
	size, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		return out, err
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return out, err
	}

	if size < headerLen {
		// The file creation itself was torn; everything goes.
		out.torn = true
		out.tornBytes = size
		return out, nil
	}
	br := bufio.NewReaderSize(f, 1<<20)
	var hdr [headerLen]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return out, err
	}
	if string(hdr[:8]) != logMagic {
		return out, fmt.Errorf("%w: %s: bad log magic", ErrCorrupt, path)
	}
	if gen := binary.BigEndian.Uint64(hdr[8:]); gen != wantGen {
		return out, fmt.Errorf("%w: %s: header generation %d, want %d", ErrCorrupt, path, gen, wantGen)
	}
	out.goodSize = headerLen

	var fhdr [frameHdrLen]byte
	payload := make([]byte, 0, 4096)
	var row value.Row
	for {
		n, err := io.ReadFull(br, fhdr[:])
		if err == io.EOF {
			return out, nil // clean end
		}
		if err == io.ErrUnexpectedEOF {
			out.torn = true
			out.tornBytes = size - out.goodSize
			return out, nil
		}
		if err != nil {
			return out, err
		}
		length := binary.BigEndian.Uint32(fhdr[0:4])
		wantCRC := binary.BigEndian.Uint32(fhdr[4:8])
		frameEnd := out.goodSize + frameHdrLen + int64(length)
		if length == 0 || length > MaxRecord {
			// A length no writer produces. If everything from here to
			// EOF is zero, the filesystem zero-filled a torn tail;
			// otherwise the header bytes themselves rotted.
			rest := make([]byte, size-out.goodSize-int64(n))
			if _, err := io.ReadFull(br, rest); err != nil {
				return out, err
			}
			if bytes.IndexFunc(bytes.Join([][]byte{fhdr[:], rest}, nil), func(r rune) bool { return r != 0 }) < 0 {
				out.torn = true
				out.tornBytes = size - out.goodSize
				return out, nil
			}
			return out, fmt.Errorf("%w: %s: frame at offset %d declares %d bytes", ErrCorrupt, path, out.goodSize, length)
		}
		if frameEnd > size {
			// Declared payload overruns the file: torn tail.
			out.torn = true
			out.tornBytes = size - out.goodSize
			return out, nil
		}
		if cap(payload) < int(length) {
			payload = make([]byte, length)
		}
		payload = payload[:length]
		if _, err := io.ReadFull(br, payload); err != nil {
			return out, err
		}
		if crc32.ChecksumIEEE(payload) != wantCRC {
			if frameEnd == size {
				// The final frame's bytes are all present but the
				// checksum fails: indistinguishable from a tear that
				// stopped mid-frame after the length prefix landed.
				// Crash residue is by far the likelier cause, and the
				// frame was never ack-synced as a complete suffix, so
				// recovery truncates rather than refuses.
				out.torn = true
				out.tornBytes = size - out.goodSize
				return out, nil
			}
			return out, fmt.Errorf("%w: %s: checksum mismatch at offset %d", ErrCorrupt, path, out.goodSize)
		}
		rec, err := decodeRecord(payload, row)
		if err != nil {
			return out, fmt.Errorf("%s: offset %d: %w", path, out.goodSize, err)
		}
		if rec.row != nil {
			row = rec.row
		}
		if err := fn(rec); err != nil {
			if errors.Is(err, ErrReplay) || errors.Is(err, ErrCorrupt) {
				return out, err
			}
			return out, fmt.Errorf("%w: %s: offset %d: %v", ErrReplay, path, out.goodSize, err)
		}
		out.records++
		out.goodSize = frameEnd
	}
}
