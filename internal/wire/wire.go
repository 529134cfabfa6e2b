// Package wire is the one binary frame for state that outlives a
// process: uwposd session snapshots and the Welford, Sketch and Partial
// blobs a sharded sweep ships between processes and hosts. Every framed
// format has this layout:
//
//	offset  size  field
//	0       4     magic, one ASCII tag per format
//	4       2     format version (u16)
//	6       ..    body: little-endian fixed-width fields and
//	              length-prefixed byte strings, as the format defines
//	..      4     CRC32-IEEE over every preceding byte (u32)
//
// Encoders write the header with Begin, append the body with
// binary.LittleEndian.Append* directly, and finish with Seal. Decoders
// call Open, which rejects a short blob, a foreign magic, a checksum
// mismatch or an unknown version, and then walk the body with a Reader.
// The checksum turns any torn or bit-rotted blob into a clean error
// rather than a silently wrong accumulator or session.
//
// A Reader also walks unframed bytes (the tracker blobs nested inside a
// snapshot, which the snapshot's checksum already covers), and WriteFile
// is the one crash-safe file write for everything that persists these
// blobs.
package wire

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
)

// Begin appends a frame header (magic, then the u16 version) to b.
func Begin(b []byte, magic string, version uint16) []byte {
	b = append(b, magic...)
	return binary.LittleEndian.AppendUint16(b, version)
}

// Seal appends the CRC32-IEEE of b, completing a frame started with
// Begin at b[0].
func Seal(b []byte) []byte {
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
}

// Open verifies a sealed frame's length, magic, checksum and version,
// in that order, and returns a Reader over its body.
func Open(magic string, version uint16, data []byte) (*Reader, error) {
	head := len(magic) + 2
	if len(data) < head+4 {
		return nil, fmt.Errorf("wire: %s blob too short (%d bytes)", magic, len(data))
	}
	if string(data[:len(magic)]) != magic {
		return nil, fmt.Errorf("wire: bad blob magic %q (want %s)", data[:len(magic)], magic)
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	if got, want := binary.LittleEndian.Uint32(tail), crc32.ChecksumIEEE(body); got != want {
		return nil, fmt.Errorf("wire: %s blob checksum mismatch (%08x != %08x)", magic, got, want)
	}
	if v := binary.LittleEndian.Uint16(body[len(magic):head]); v != version {
		return nil, fmt.Errorf("wire: unsupported %s blob version %d (want %d)", magic, v, version)
	}
	return NewReader(body[head:]), nil
}

// Reader walks little-endian fields with bounds checking. The first
// short read sets a sticky error; every later read returns zero, so a
// decoder reads its fields in a straight line and checks Err or Close
// once.
type Reader struct {
	b   []byte
	err error
}

// NewReader returns a Reader over b.
func NewReader(b []byte) *Reader { return &Reader{b: b} }

// Bytes consumes the next n bytes and returns them, aliasing the input.
// A negative or unavailable n sets the error and returns nil.
func (r *Reader) Bytes(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > len(r.b) {
		r.err = fmt.Errorf("wire: blob truncated (need %d bytes, have %d)", n, len(r.b))
		return nil
	}
	out := r.b[:n:n]
	r.b = r.b[n:]
	return out
}

// U8 consumes one byte.
func (r *Reader) U8() uint8 {
	if b := r.Bytes(1); b != nil {
		return b[0]
	}
	return 0
}

// U16 consumes a little-endian uint16.
func (r *Reader) U16() uint16 {
	if b := r.Bytes(2); b != nil {
		return binary.LittleEndian.Uint16(b)
	}
	return 0
}

// U32 consumes a little-endian uint32.
func (r *Reader) U32() uint32 {
	if b := r.Bytes(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

// U64 consumes a little-endian uint64.
func (r *Reader) U64() uint64 {
	if b := r.Bytes(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

// F64 consumes an IEEE-754 float64 stored as its exact bit pattern.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Len returns the number of unread bytes.
func (r *Reader) Len() int { return len(r.b) }

// Err returns the sticky read error, if any.
func (r *Reader) Err() error { return r.err }

// Close finishes a decode: a pending read error or any unread byte makes
// the input corrupt.
func (r *Reader) Close() error {
	if r.err != nil {
		return r.err
	}
	if len(r.b) != 0 {
		return fmt.Errorf("wire: %d trailing bytes after blob", len(r.b))
	}
	return nil
}

// WriteFile durably replaces the file at path with data. It writes a
// sibling path+".tmp", fsyncs and closes it, then renames it over path,
// so path always holds either its complete old content or the complete
// new one. On any failure the temp file is removed; a crash mid-write
// leaves at worst a stale temp file, which the next write truncates.
func WriteFile(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
	}
	return err
}
