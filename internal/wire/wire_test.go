package wire_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"

	"uwpos/internal/wire"
	"uwpos/internal/wire/wiretest"
)

// sample builds a frame exercising every field width the Reader offers.
func sample() []byte {
	b := wire.Begin(nil, "UWTS", 3)
	b = append(b, 7)
	b = binary.LittleEndian.AppendUint16(b, 0xbeef)
	b = binary.LittleEndian.AppendUint32(b, 5)
	b = append(b, "hello"...)
	b = binary.LittleEndian.AppendUint64(b, 1<<40)
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(-2.5))
	return wire.Seal(b)
}

// decodeSample reads sample's body back, failing on any field mismatch.
func decodeSample(data []byte) error {
	r, err := wire.Open("UWTS", 3, data)
	if err != nil {
		return err
	}
	u8, u16 := r.U8(), r.U16()
	s := string(r.Bytes(int(r.U32())))
	u64, f := r.U64(), r.F64()
	if err := r.Close(); err != nil {
		return err
	}
	if u8 != 7 || u16 != 0xbeef || s != "hello" || u64 != 1<<40 || f != -2.5 {
		return errors.New("fields decoded to the wrong values")
	}
	return nil
}

func TestFrameRoundTrip(t *testing.T) {
	blob := sample()
	if string(blob[:4]) != "UWTS" || binary.LittleEndian.Uint16(blob[4:6]) != 3 {
		t.Fatalf("header % x", blob[:6])
	}
	if err := decodeSample(blob); err != nil {
		t.Fatal(err)
	}
	// An empty body is a valid frame.
	r, err := wire.Open("UWTS", 3, wire.Seal(wire.Begin(nil, "UWTS", 3)))
	if err != nil || r.Len() != 0 || r.Close() != nil {
		t.Fatalf("empty body: %v", err)
	}
}

// TestFrameRejectsCorruption runs the shared corruption matrix over a
// frame: every variant must fail to open or to decode.
func TestFrameRejectsCorruption(t *testing.T) {
	n := 0
	for name, bad := range wiretest.Framed(sample()) {
		n++
		if err := decodeSample(bad); err == nil {
			t.Errorf("%s: corrupt frame decoded cleanly", name)
		}
	}
	if want := len(sample())*9 + 3; n != want {
		t.Errorf("matrix yielded %d variants, want %d", n, want)
	}
	if _, err := wire.Open("UWTS", 2, sample()); err == nil {
		t.Error("frame opened under the wrong version")
	}
	if _, err := wire.Open("UWXX", 3, sample()); err == nil {
		t.Error("frame opened under the wrong magic")
	}
}

func TestReaderStickyError(t *testing.T) {
	r := wire.NewReader([]byte{1, 2, 3})
	if r.U16() != 0x0201 || r.Len() != 1 {
		t.Fatal("first read")
	}
	if r.U32() != 0 || r.Err() == nil {
		t.Fatal("short read did not set the error")
	}
	if r.U8() != 0 || r.Bytes(0) != nil || r.F64() != 0 {
		t.Fatal("reads after an error must return zero values")
	}
	if r.Close() == nil {
		t.Fatal("close hid the pending error")
	}
	if r := wire.NewReader([]byte{1}); r.Bytes(-1) != nil || r.Err() == nil {
		t.Fatal("negative length accepted")
	}
	if r := wire.NewReader([]byte{1, 2}); r.U8() != 1 || r.Close() == nil {
		t.Fatal("trailing byte accepted")
	}
	// Consumed bytes alias the input but cannot grow into the rest of it.
	in := []byte{1, 2, 3}
	got := wire.NewReader(in).Bytes(2)
	if &got[0] != &in[0] || cap(got) != 2 {
		t.Fatalf("Bytes returned len %d cap %d", len(got), cap(got))
	}
}

func TestUnframedMatrix(t *testing.T) {
	blob := []byte{1, 10, 20}
	var names []string
	for name, bad := range wiretest.Unframed(blob) {
		names = append(names, name)
		if bytes.Equal(bad, blob) {
			t.Errorf("%s: variant equals the pristine blob", name)
		}
	}
	if len(names) != len(blob)+2 {
		t.Errorf("variants %q", names)
	}
}

func TestWriteFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.bin")
	for _, data := range [][]byte{[]byte("first"), []byte("second, longer")} {
		if err := wire.WriteFile(path, data); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("read back %q, %v", got, err)
		}
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("temp file left behind: %v", err)
	}

	// A rename that cannot land (the target is a non-empty directory)
	// fails, keeps the target and removes the temp file.
	target := filepath.Join(dir, "busy")
	if err := os.MkdirAll(filepath.Join(target, "child"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := wire.WriteFile(target, []byte("x")); err == nil {
		t.Fatal("rename over a non-empty directory succeeded")
	}
	if _, err := os.Stat(target + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("temp file survived a failed write: %v", err)
	}
	if _, err := os.Stat(filepath.Join(target, "child")); err != nil {
		t.Fatalf("failed write disturbed the target: %v", err)
	}

	// No directory to hold the temp file: the open fails.
	if err := wire.WriteFile(filepath.Join(dir, "missing", "f"), nil); err == nil {
		t.Fatal("write into a missing directory succeeded")
	}
}
