package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"uniqopt/internal/fault"
)

const (
	manifestName = "MANIFEST"
	// oldSnapshotName is the full-heap snapshot of the format this one
	// replaced; a directory holding one is refused (ErrOldFormat).
	oldSnapshotName = "snapshot.dat"
)

// manifest is the decoded content of MANIFEST: which log is live, which
// sealed logs precede it in replay order, and the catalog version when
// it was written (index DDL bumps the version without a log record, so
// replay alone would restore a lower one).
type manifest struct {
	live    uint64
	sealed  []uint64
	version uint64
}

// writeManifest replaces dir/MANIFEST with the atomic
// temp-write/fsync/rename/dir-fsync dance: either the old manifest or
// the complete new one exists, never a partial file under the live
// name. renamed reports that the new manifest is the one a reader of
// the directory now finds — true with an error when only the directory
// fsync failed, and the caller can no longer tell which one a crash
// would leave.
func writeManifest(dir string, m manifest) (renamed bool, err error) {
	if err := fault.Point(FaultCheckpointSnapshot); err != nil {
		return false, fmt.Errorf("wal: manifest: %w", err)
	}
	// Fixed-width fields: a checkpoint grows the file by eight bytes.
	out := append(make([]byte, 0, len(manifestMagic)+24+8*len(m.sealed)+4), manifestMagic...)
	out = binary.BigEndian.AppendUint64(out, m.live)
	out = binary.BigEndian.AppendUint64(out, m.version)
	out = binary.BigEndian.AppendUint64(out, uint64(len(m.sealed)))
	for _, g := range m.sealed {
		out = binary.BigEndian.AppendUint64(out, g)
	}
	out = binary.BigEndian.AppendUint32(out, crc32.ChecksumIEEE(out[len(manifestMagic):]))

	tmp, err := os.CreateTemp(dir, "manifest-*.tmp")
	if err != nil {
		return false, err
	}
	tmpPath := tmp.Name()
	// Clean the temp file up on every failure path below.
	fail := func(err error) error {
		tmp.Close()
		os.Remove(tmpPath)
		return err
	}
	if _, err := tmp.Write(out); err != nil {
		return false, fail(err)
	}
	if err := tmp.Sync(); err != nil {
		return false, fail(err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpPath)
		return false, err
	}
	if err := fault.Point(FaultCheckpointRename); err != nil {
		os.Remove(tmpPath)
		return false, fmt.Errorf("wal: manifest rename: %w", err)
	}
	if err := os.Rename(tmpPath, filepath.Join(dir, manifestName)); err != nil {
		os.Remove(tmpPath)
		return false, err
	}
	return true, syncDir(dir)
}

// loadManifest reads and verifies dir/MANIFEST. A missing file returns
// (nil, nil); any structural or checksum failure returns
// ErrManifestCorrupt.
func loadManifest(dir string) (*manifest, error) {
	path := filepath.Join(dir, manifestName)
	raw, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	if len(raw) < len(manifestMagic)+24+4 || string(raw[:len(manifestMagic)]) != manifestMagic {
		return nil, fmt.Errorf("%w: %s: bad header", ErrManifestCorrupt, path)
	}
	body := raw[len(manifestMagic) : len(raw)-4]
	if crc32.ChecksumIEEE(body) != binary.BigEndian.Uint32(raw[len(raw)-4:]) {
		return nil, fmt.Errorf("%w: %s: checksum mismatch", ErrManifestCorrupt, path)
	}
	m := &manifest{
		live:    binary.BigEndian.Uint64(body[0:8]),
		version: binary.BigEndian.Uint64(body[8:16]),
	}
	if n := binary.BigEndian.Uint64(body[16:24]); n != uint64(len(body)-24)/8 || len(body)%8 != 0 {
		return nil, fmt.Errorf("%w: %s: %d sealed generations in %d bytes", ErrManifestCorrupt, path, n, len(body))
	}
	last := uint64(0)
	for b := body[24:]; len(b) > 0; b = b[8:] {
		g := binary.BigEndian.Uint64(b)
		if g <= last || g >= m.live {
			return nil, fmt.Errorf("%w: %s: sealed generation %d out of order (live %d)", ErrManifestCorrupt, path, g, m.live)
		}
		m.sealed, last = append(m.sealed, g), g
	}
	return m, nil
}
