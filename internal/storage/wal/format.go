// Package wal implements the disk-backed storage.Store: an
// append-only write-ahead log of typed records (DDL, insert,
// checkpoint) in length-prefixed CRC32-checksummed frames, cut into
// generations, and replayed on restart through the same
// constraint-enforcing insert path the live system uses — so a
// recovered database is provably a valid instance in the sense of
// the paper's Theorem 1, and every uniqueness rewrite that was sound
// before the crash is sound after it.
//
// On-disk layout of a data directory:
//
//	MANIFEST       live generation G, the sealed generations in replay
//	               order, catalog version; checksummed
//	wal-g.log      one per sealed generation g: complete, fsynced,
//	               never written again, never deleted
//	wal-G.log      the live log: every mutation since the last
//	               checkpoint; the only file open for write and the
//	               only one that may end in a torn frame
//
// The only mutation is INSERT, so the rows a checkpoint would have to
// save are exactly the live log's records, which are already on disk.
// A checkpoint therefore rewrites no row: it seals the live log. It
// fsyncs wal-G.log, creates and fsyncs wal-(G+1).log with its marker
// record, and commits by writing a new MANIFEST to a temp file,
// fsyncing it and atomically renaming it over the old one (directory
// fsynced). A crash before the rename leaves generation G live and a
// stray wal-(G+1).log, which recovery deletes because the manifest
// does not name it; after the rename G is sealed and G+1 live.
// Recovery replays the sealed generations in order, strictly — a torn
// or corrupt sealed file is a typed error, since it was fsynced before
// it was sealed — and then the live one, truncating a torn tail.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"uniqopt/internal/value"
)

// Typed failures recovery and the write path distinguish. Callers
// match with errors.Is; every wrapped error keeps the context of
// which file and offset misbehaved.
var (
	// ErrCorrupt marks a frame whose checksum or structure is wrong
	// in the *middle* of a log — data that was once durable and has
	// since rotted. Recovery refuses to guess past it.
	ErrCorrupt = errors.New("wal: corrupt frame")
	// ErrManifestCorrupt marks a MANIFEST whose checksum or structure
	// is wrong.
	ErrManifestCorrupt = errors.New("wal: corrupt manifest")
	// ErrReplay marks a log record the constraint-enforcing insert
	// path rejected during recovery — the log disagrees with the
	// schema it was written under.
	ErrReplay = errors.New("wal: replay rejected record")
	// ErrMissingGeneration marks a data directory whose manifest names
	// a log that is not there, or whose logs no manifest accounts for.
	ErrMissingGeneration = errors.New("wal: log generation or its manifest missing")
	// ErrOldFormat marks a data directory written by the full-heap
	// snapshot format (snapshot.dat, magic UQSNAP01). It is refused by
	// name: its logs were deleted at every checkpoint, so replaying
	// what is left would silently drop the snapshot's rows.
	ErrOldFormat = errors.New("wal: data directory is in the old snapshot.dat format")
	// ErrWedged is returned by writes after an earlier I/O failure:
	// the in-memory heap and the log may disagree by the failed
	// operation, so the store refuses further writes until it is
	// closed and reopened (recovery restores the durable prefix).
	ErrWedged = errors.New("wal: store wedged by earlier write failure; reopen to recover")
)

// Record kinds, the first byte of every frame payload.
const (
	recDDL        = 'D' // catalog version (8B BE) + CREATE TABLE text
	recInsert     = 'I' // table name + row values
	recCheckpoint = 'C' // generation (8B BE) + catalog version (8B BE)
)

// MaxRecord bounds a single frame payload. Anything larger in a
// length prefix is structural corruption, not a real record.
const MaxRecord = 64 << 20

const (
	logMagic      = "UQWALOG1" // 8 bytes, followed by 8B BE generation
	manifestMagic = "UQMANIF1"
	headerLen     = 16
	// frameHdrLen is the per-frame prefix: 4B BE payload length +
	// 4B BE CRC32 (IEEE) of the payload.
	frameHdrLen = 8
)

// record is one decoded log entry.
type record struct {
	kind    byte
	version uint64 // recDDL: catalog version after; recCheckpoint: version at checkpoint
	gen     uint64 // recCheckpoint only
	sql     string // recDDL only
	table   string // recInsert only
	row     value.Row
}

// finishFrame fills in the header of a frame built in place — the
// frameHdrLen bytes the payload was appended after: payload length,
// then the payload's checksum.
func finishFrame(frame []byte) []byte {
	payload := frame[frameHdrLen:]
	binary.BigEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload))
	return frame
}

// appendDDL appends a recDDL payload to dst.
func appendDDL(dst []byte, version uint64, sql string) []byte {
	dst = append(dst, recDDL)
	dst = binary.BigEndian.AppendUint64(dst, version)
	return append(dst, sql...)
}

// appendInsert appends a recInsert payload to dst.
func appendInsert(dst []byte, table string, row value.Row) []byte {
	dst = append(dst, recInsert)
	dst = binary.AppendUvarint(dst, uint64(len(table)))
	dst = append(dst, table...)
	return appendRow(dst, row)
}

// appendCheckpoint appends a recCheckpoint payload to dst.
func appendCheckpoint(dst []byte, gen, version uint64) []byte {
	dst = append(dst, recCheckpoint)
	dst = binary.BigEndian.AppendUint64(dst, gen)
	return binary.BigEndian.AppendUint64(dst, version)
}

// decodeRecord parses one frame payload. An insert record's row is
// decoded into buf's storage, which it reuses from the first cell.
func decodeRecord(payload []byte, buf value.Row) (record, error) {
	if len(payload) == 0 {
		return record{}, fmt.Errorf("%w: empty payload", ErrCorrupt)
	}
	rec := record{kind: payload[0]}
	body := payload[1:]
	switch rec.kind {
	case recDDL:
		if len(body) < 8 {
			return record{}, fmt.Errorf("%w: DDL record truncated", ErrCorrupt)
		}
		rec.version = binary.BigEndian.Uint64(body[:8])
		rec.sql = string(body[8:])
	case recInsert:
		n, sz := binary.Uvarint(body)
		if sz <= 0 || uint64(len(body)-sz) < n {
			return record{}, fmt.Errorf("%w: insert record truncated", ErrCorrupt)
		}
		rec.table = string(body[sz : sz+int(n)])
		row, rest, err := decodeRow(buf, body[sz+int(n):])
		if err != nil {
			return record{}, err
		}
		if len(rest) != 0 {
			return record{}, fmt.Errorf("%w: %d trailing bytes after insert row", ErrCorrupt, len(rest))
		}
		rec.row = row
	case recCheckpoint:
		if len(body) != 16 {
			return record{}, fmt.Errorf("%w: checkpoint record has %d body bytes, want 16", ErrCorrupt, len(body))
		}
		rec.gen = binary.BigEndian.Uint64(body[:8])
		rec.version = binary.BigEndian.Uint64(body[8:])
	default:
		return record{}, fmt.Errorf("%w: unknown record kind %q", ErrCorrupt, rec.kind)
	}
	return rec, nil
}

// Value wire kinds for the row codec.
const (
	vNull = 0
	vInt  = 1
	vStr  = 2
	vBool = 3
)

// appendRow encodes a row: a count followed by self-describing cells;
// integers are zigzag varints, so a small key costs two bytes, not nine.
func appendRow(dst []byte, row value.Row) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(row)))
	for _, v := range row {
		switch {
		case v.IsNull():
			dst = append(dst, vNull)
		case v.Kind() == value.KindInt:
			dst = append(dst, vInt)
			dst = binary.AppendVarint(dst, v.AsInt())
		case v.Kind() == value.KindString:
			s := v.AsString()
			dst = append(dst, vStr)
			dst = binary.AppendUvarint(dst, uint64(len(s)))
			dst = append(dst, s...)
		default: // KindBool
			b := byte(0)
			if v.AsBool() {
				b = 1
			}
			dst = append(dst, vBool, b)
		}
	}
	return dst
}

// decodeRow decodes a row into dst's storage, overwriting it from the
// first cell, and returns the row and the remaining bytes.
func decodeRow(dst value.Row, b []byte) (value.Row, []byte, error) {
	n, sz := binary.Uvarint(b)
	if sz <= 0 || n > MaxRecord {
		return nil, nil, fmt.Errorf("%w: bad row arity", ErrCorrupt)
	}
	b = b[sz:]
	row := dst[:0]
	for i := uint64(0); i < n; i++ {
		if len(b) == 0 {
			return nil, nil, fmt.Errorf("%w: row truncated at cell %d", ErrCorrupt, i)
		}
		kind := b[0]
		b = b[1:]
		switch kind {
		case vNull:
			row = append(row, value.Value{})
		case vInt:
			i, isz := binary.Varint(b)
			if isz <= 0 {
				return nil, nil, fmt.Errorf("%w: int cell truncated", ErrCorrupt)
			}
			row = append(row, value.Int(i))
			b = b[isz:]
		case vStr:
			l, lsz := binary.Uvarint(b)
			if lsz <= 0 || uint64(len(b)-lsz) < l {
				return nil, nil, fmt.Errorf("%w: string cell truncated", ErrCorrupt)
			}
			row = append(row, value.String_(string(b[lsz:lsz+int(l)])))
			b = b[lsz+int(l):]
		case vBool:
			if len(b) < 1 {
				return nil, nil, fmt.Errorf("%w: bool cell truncated", ErrCorrupt)
			}
			row = append(row, value.Bool(b[0] != 0))
			b = b[1:]
		default:
			return nil, nil, fmt.Errorf("%w: unknown cell kind %d", ErrCorrupt, kind)
		}
	}
	return row, b, nil
}
