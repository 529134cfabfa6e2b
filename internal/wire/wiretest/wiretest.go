// Package wiretest generates the corruption matrix every binary codec's
// tests run: damaged copies of one pristine blob, each of which the
// codec must reject with an error rather than decode into a wrong value.
package wiretest

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"iter"
	"os"
	"path/filepath"
	"testing"

	"uwpos/internal/wire"
)

// Pinned returns the blob stored hex-encoded in testdata/<name>.hex of
// the calling test's package. Pinned blobs were encoded by an earlier
// release; decoding them proves that state it wrote stays readable.
func Pinned(t testing.TB, name string) []byte {
	t.Helper()
	text, err := os.ReadFile(filepath.Join("testdata", name+".hex"))
	if err != nil {
		t.Fatal(err)
	}
	blob, err := hex.DecodeString(string(bytes.TrimSpace(text)))
	if err != nil {
		t.Fatalf("%s.hex: %v", name, err)
	}
	return blob
}

// Framed yields the damaged copies of a sealed wire frame: every
// truncation, every single-bit flip, a foreign magic, a future version
// (0x7f) under a recomputed checksum, and one trailing byte. The yielded
// slice is reused between variants; copy it to keep it.
func Framed(blob []byte) iter.Seq2[string, []byte] {
	return func(yield func(string, []byte) bool) {
		if !common(blob, yield) {
			return
		}
		buf := append([]byte(nil), blob...)
		for i := range buf {
			for bit := range 8 {
				buf[i] ^= 1 << bit
				ok := yield(fmt.Sprintf("flip byte %d bit %d", i, bit), buf)
				buf[i] ^= 1 << bit
				if !ok {
					return
				}
			}
		}
		if !yield("bad magic", append([]byte("XXXX"), blob[4:]...)) {
			return
		}
		future := append([]byte(nil), blob[:len(blob)-4]...)
		binary.LittleEndian.PutUint16(future[4:6], 0x7f)
		yield("future version", wire.Seal(future))
	}
}

// Unframed yields the damaged copies of an unframed blob whose first
// byte is its version: every truncation, one trailing byte and a foreign
// version byte (99). With no checksum a flipped bit can be valid input,
// so there are no flips.
func Unframed(blob []byte) iter.Seq2[string, []byte] {
	return func(yield func(string, []byte) bool) {
		if common(blob, yield) {
			yield("bad version", append([]byte{99}, blob[1:]...))
		}
	}
}

// common yields the variants both kinds share, reporting whether the
// consumer wants more.
func common(blob []byte, yield func(string, []byte) bool) bool {
	for n := range len(blob) {
		if !yield(fmt.Sprintf("truncated to %d bytes", n), blob[:n:n]) {
			return false
		}
	}
	return yield("trailing byte", append(append([]byte(nil), blob...), 0))
}
