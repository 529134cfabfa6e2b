package stats

import (
	"bytes"
	"encoding"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"uwpos/internal/wire"
	"uwpos/internal/wire/wiretest"
)

// trialStream produces a deterministic pseudo-random value stream for
// merge/codec tests without touching the sketch's own RNG.
func trialStream(seed int64, n int) []float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float64, n)
	for i := range out {
		out[i] = rng.NormFloat64()*3 + 10
	}
	return out
}

// splitPoints cuts n into k contiguous spans the way the shard planner
// does: span i is [n*i/k, n*(i+1)/k).
func splitSpans(n, k int) [][2]int {
	spans := make([][2]int, k)
	for i := 0; i < k; i++ {
		spans[i] = [2]int{n * i / k, n * (i + 1) / k}
	}
	return spans
}

func sketchStateEqual(t *testing.T, got, want *Sketch) {
	t.Helper()
	if got.w != want.w {
		t.Fatalf("welford state differs: %+v != %+v", got.w, want.w)
	}
	gv, wv := got.Values(), want.Values()
	if len(gv) != len(wv) {
		t.Fatalf("retained %d values, want %d", len(gv), len(wv))
	}
	for i := range gv {
		if math.Float64bits(gv[i]) != math.Float64bits(wv[i]) {
			t.Fatalf("value %d: %v != %v", i, gv[i], wv[i])
		}
	}
	var gd, wd uint64
	if got.src != nil {
		gd = got.src.draws
	}
	if want.src != nil {
		wd = want.src.draws
	}
	if gd != wd {
		t.Fatalf("rng cursor %d, want %d", gd, wd)
	}
}

// Merging exact shard sketches in shard-index order must reproduce the
// single-stream sketch bit for bit — state, quantiles, moments, and the
// continuation after further Adds — at any shard count, including when
// the merged total crosses the exact threshold.
func TestSketchMergeExactShardsBitIdentical(t *testing.T) {
	for _, tc := range []struct {
		name   string
		capac  int
		n      int
		shards int
	}{
		{"exact-total", 256, 200, 4},
		{"crosses-threshold", 64, 200, 4},
		{"far-past-threshold", 32, 500, 20},
		{"single-shard", 64, 60, 1},
		{"more-shards-than-trials", 64, 3, 5},
		{"two-values-cap", 2, 6, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			stream := trialStream(42, tc.n)

			single := NewSketchSize(tc.capac)
			for _, v := range stream {
				single.Add(v)
			}

			merged := NewSketchSize(tc.capac)
			for _, span := range splitSpans(tc.n, tc.shards) {
				shard := NewSketchSize(tc.capac)
				for _, v := range stream[span[0]:span[1]] {
					shard.Add(v)
				}
				if !shard.Exact() {
					t.Fatalf("shard left exact mode; tc sized wrong")
				}
				merged.Merge(shard)
			}

			sketchStateEqual(t, merged, single)
			for _, p := range []float64{0, 25, 50, 95, 100} {
				if math.Float64bits(merged.Quantile(p)) != math.Float64bits(single.Quantile(p)) {
					t.Fatalf("p%v: %v != %v", p, merged.Quantile(p), single.Quantile(p))
				}
			}
			// The merged sketch must continue the stream identically too.
			for _, v := range trialStream(7, 100) {
				single.Add(v)
				merged.Add(v)
			}
			sketchStateEqual(t, merged, single)
		})
	}
}

// Random split boundaries (not just even spans) must also fold back
// bit-identically — the property the shard planner relies on is purely
// "concatenation of exact sub-streams", not any particular split shape.
func TestSketchMergeRandomSplitsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for iter := 0; iter < 50; iter++ {
		n := 1 + rng.Intn(300)
		capac := 2 + rng.Intn(100)
		stream := trialStream(int64(iter), n)

		single := NewSketchSize(capac)
		for _, v := range stream {
			single.Add(v)
		}

		merged := NewSketchSize(capac)
		for lo := 0; lo < n; {
			hi := lo + 1 + rng.Intn(n-lo)
			shard := NewSketchSize(capac)
			for _, v := range stream[lo:hi] {
				shard.Add(v)
			}
			if shard.Exact() {
				merged.Merge(shard)
			} else {
				// Oversized cut: replay directly so the property under test
				// stays "exact shards fold bit-identically".
				for _, v := range stream[lo:hi] {
					merged.Add(v)
				}
			}
			lo = hi
		}
		sketchStateEqual(t, merged, single)
	}
}

// Merging into a fresh sketch adopts the source state exactly.
func TestSketchMergeIntoEmpty(t *testing.T) {
	src := NewSketchSize(32)
	for _, v := range trialStream(3, 20) {
		src.Add(v)
	}
	dst := NewSketchSize(32)
	dst.Merge(src)
	sketchStateEqual(t, dst, src)

	dst2 := NewSketchSize(32)
	dst2.Merge(nil)
	dst2.Merge(NewSketchSize(32))
	if dst2.Count() != 0 {
		t.Fatalf("merging nil/empty changed count to %d", dst2.Count())
	}
}

// Non-exact source sketches can no longer replay their full stream; the
// merge must still be deterministic, preserve exact moments, and keep
// quantile error in the same band as a single reservoir of equal
// capacity.
func TestSketchMergeReservoirTolerance(t *testing.T) {
	const capac = 512
	const n = 20000
	stream := trialStream(11, 2*n)

	build := func() *Sketch {
		a := NewSketchSize(capac)
		b := NewSketchSize(capac)
		for _, v := range stream[:n] {
			a.Add(v)
		}
		for _, v := range stream[n:] {
			b.Add(v)
		}
		a.Merge(b)
		return a
	}
	m1, m2 := build(), build()
	sketchStateEqual(t, m1, m2) // deterministic: pure function of inputs

	single := NewSketchSize(capac)
	exact := NewSketchSize(len(stream))
	for _, v := range stream {
		single.Add(v)
		exact.Add(v)
	}
	if m1.Count() != int64(len(stream)) {
		t.Fatalf("count %d, want %d", m1.Count(), len(stream))
	}
	// Moments are exact (Chan merge), not estimates.
	if math.Abs(m1.Mean()-exact.Mean()) > 1e-9 {
		t.Fatalf("mean %v, want %v", m1.Mean(), exact.Mean())
	}
	if math.Abs(m1.Std()-exact.Std()) > 1e-9 {
		t.Fatalf("std %v, want %v", m1.Std(), exact.Std())
	}
	// Quantiles: reservoir estimate. With cap 512 the standard error of a
	// quantile estimate is a few percentage points of rank; compare against
	// the truth and against what a single same-capacity reservoir achieves.
	for _, p := range []float64{10, 50, 90} {
		truth := exact.Quantile(p)
		if got := m1.Quantile(p); math.Abs(got-truth) > 1.0 {
			t.Fatalf("p%v after merge: %v, truth %v (stream std 3)", p, got, truth)
		}
		if got := single.Quantile(p); math.Abs(got-truth) > 1.0 {
			t.Fatalf("p%v single reservoir drifted: %v vs %v", p, got, truth)
		}
	}
	if len(m1.Values()) != capac {
		t.Fatalf("merged reservoir holds %d values, want %d", len(m1.Values()), capac)
	}
}

// Round-trip: decode(encode(x)) restores identical state, and the codec
// is canonical — re-encoding reproduces the input bytes.
func TestWelfordCodecRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 5, 1000} {
		var w Welford
		for _, v := range trialStream(5, n) {
			w.Add(v)
		}
		blob, err := w.MarshalBinary()
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		var got Welford
		if err := got.UnmarshalBinary(blob); err != nil {
			t.Fatalf("unmarshal: %v", err)
		}
		if got != w {
			t.Fatalf("round trip: %+v != %+v", got, w)
		}
		re, _ := got.MarshalBinary()
		if !bytes.Equal(re, blob) {
			t.Fatalf("re-encode not canonical")
		}
	}
}

func TestSketchCodecRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name  string
		capac int
		n     int
	}{
		{"empty", 64, 0},
		{"exact", 64, 30},
		{"at-threshold", 64, 64},
		{"reservoir", 64, 500},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := NewSketchSize(tc.capac)
			for _, v := range trialStream(9, tc.n) {
				s.Add(v)
			}
			blob, err := s.MarshalBinary()
			if err != nil {
				t.Fatalf("marshal: %v", err)
			}
			got := new(Sketch)
			if err := got.UnmarshalBinary(blob); err != nil {
				t.Fatalf("unmarshal: %v", err)
			}
			sketchStateEqual(t, got, s)
			re, _ := got.MarshalBinary()
			if !bytes.Equal(re, blob) {
				t.Fatalf("re-encode not canonical")
			}
			// The restored sketch continues the stream bit-identically,
			// including reservoir decisions driven by the restored RNG cursor.
			for _, v := range trialStream(13, 200) {
				s.Add(v)
				got.Add(v)
			}
			sketchStateEqual(t, got, s)
		})
	}
}

// Every damaged variant of a valid blob must fail decode, never yield
// silent garbage.
func TestCodecCorruptionMatrix(t *testing.T) {
	var w Welford
	s := NewSketchSize(16)
	for _, v := range trialStream(21, 40) {
		w.Add(v)
		s.Add(v)
	}
	wb, _ := w.MarshalBinary()
	sb, _ := s.MarshalBinary()

	for _, tc := range []struct {
		name   string
		decode func([]byte) error
		blob   []byte
	}{
		{"welford", func(b []byte) error { var x Welford; return x.UnmarshalBinary(b) }, wb},
		{"sketch", func(b []byte) error { var x Sketch; return x.UnmarshalBinary(b) }, sb},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.decode(tc.blob); err != nil {
				t.Fatalf("pristine blob failed: %v", err)
			}
			for name, blob := range wiretest.Framed(tc.blob) {
				if err := tc.decode(blob); err == nil {
					t.Errorf("%s: corrupt blob decoded cleanly", name)
				}
			}
		})
	}
}

// Internally-inconsistent but well-framed blobs must be rejected.
func TestSketchCodecRejectsInconsistentFields(t *testing.T) {
	s := NewSketchSize(16)
	for _, v := range trialStream(2, 10) {
		s.Add(v)
	}
	blob, _ := s.MarshalBinary()

	// Field offsets as documented on Sketch.MarshalBinary.
	corruptField := func(mutate func(b []byte) []byte) []byte {
		b := append([]byte(nil), blob[:len(blob)-4]...)
		return wire.Seal(mutate(b))
	}
	cases := map[string][]byte{
		// cap 0 (< 2) is never produced by NewSketchSize.
		"zero-cap": corruptField(func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[6:], 0)
			return b
		}),
		// n below the retained count is impossible.
		"count-exceeds-n": corruptField(func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[10:], 1)
			return b
		}),
		// retained count larger than the payload can hold.
		"huge-count": corruptField(func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[42:], 0x7fffffff)
			return b
		}),
		// n=10 under cap 16 must retain all 10 values; keeping 5 would
		// report Exact() with the mean of half the stream.
		"count-below-min-n-cap": corruptField(func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[42:], 5)
			return b[:46+5*8]
		}),
		"negative-n": corruptField(func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[10:], math.MaxUint64)
			return b
		}),
		// Exact mode never draws from the reservoir RNG.
		"draws-in-exact-mode": corruptField(func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[34:], 1)
			return b
		}),
	}
	for name, b := range cases {
		var x Sketch
		if err := x.UnmarshalBinary(b); err == nil {
			t.Errorf("%s: inconsistent blob decoded cleanly (exact %v, mean %v)", name, x.Exact(), x.Mean())
		}
	}

	// Welford: a negative count is as impossible as in the sketch.
	var w Welford
	w.Add(1)
	wb, _ := w.MarshalBinary()
	wb = append([]byte(nil), wb[:len(wb)-4]...)
	binary.LittleEndian.PutUint64(wb[6:], math.MaxUint64)
	if err := new(Welford).UnmarshalBinary(wire.Seal(wb)); err == nil {
		t.Error("welford with negative count decoded cleanly")
	}
}

// TestCodecPinnedBlobs holds the wire format still: the blobs in
// testdata were encoded by an earlier release from the streams below, so
// the current encoder must reproduce them, and decoding them must
// re-encode to the same bytes (shard blobs and checkpoints written
// before an upgrade stay readable after it).
func TestCodecPinnedBlobs(t *testing.T) {
	var w Welford
	for _, v := range trialStream(5, 100) {
		w.Add(v)
	}
	exact := NewSketchSize(64)
	for _, v := range trialStream(9, 30) {
		exact.Add(v)
	}
	reservoir := NewSketchSize(16)
	for _, v := range trialStream(9, 100) {
		reservoir.Add(v)
	}
	for _, tc := range []struct {
		name    string
		fresh   encoding.BinaryMarshaler
		decoded interface {
			encoding.BinaryMarshaler
			encoding.BinaryUnmarshaler
		}
	}{
		{"welford", &w, new(Welford)},
		{"sketch_exact", exact, new(Sketch)},
		{"sketch_reservoir", reservoir, new(Sketch)},
	} {
		pinned := wiretest.Pinned(t, tc.name)
		if b, _ := tc.fresh.MarshalBinary(); !bytes.Equal(b, pinned) {
			t.Errorf("%s: encoder output differs from the pinned blob", tc.name)
		}
		if err := tc.decoded.UnmarshalBinary(pinned); err != nil {
			t.Errorf("%s: pinned blob rejected: %v", tc.name, err)
			continue
		}
		if b, _ := tc.decoded.MarshalBinary(); !bytes.Equal(b, pinned) {
			t.Errorf("%s: decode then encode changed the bytes", tc.name)
		}
	}
	if reservoir.Exact() || reservoir.src.draws == 0 {
		t.Fatal("reservoir pin no longer exercises the RNG cursor")
	}
}
