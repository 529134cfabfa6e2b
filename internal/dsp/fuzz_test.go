package dsp

import (
	"math"
	"slices"
	"testing"
)

// FuzzBankStreamChunking fuzzes signal content and chunk-split points of
// a one-template low-latency bank session against two references: the
// one-shot normalized Matcher correlation (rounding-level tolerance —
// different FFT block grid) and the single-chunk streaming session
// (bit-exact — same absolute block grid by construction). The template is the stream's own
// prefix so the fuzzer controls correlation structure (plateaus, exact
// ties, constants) directly through the input bytes.
func FuzzBankStreamChunking(f *testing.F) {
	f.Add([]byte{7, 3, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
	f.Add(append([]byte{40, 5}, make([]byte, 400)...)) // constant signal: all-tie plateaus
	seed := []byte{90, 200}
	for i := 0; i < 300; i++ {
		seed = append(seed, byte(i*37), byte(255-i))
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 16 {
			t.Skip()
		}
		header, body := data[:2], data[2:]
		x := make([]float64, len(body))
		for i, b := range body {
			x[i] = (float64(b) - 128) / 128
		}
		hlen := 1 + int(header[0])%(len(x)/2)
		mt := NewMatcher(x[:hlen])
		bank := NewMatcherBankLowLatency(mt)

		wantRaw := mt.correlate(x, false, false)
		wantNorm := mt.correlate(x, true, false)
		if hlen >= directCorrMin {
			// The FFT kernel is in play: pin it to the O(n·h) sliding dot
			// product so a kernel regression can't hide behind the
			// stream-vs-one-shot comparison (both sides share the kernel).
			direct := xcorrDirect(x, x[:hlen], false)
			for i := range direct {
				if math.Abs(wantRaw[i]-direct[i]) > 1e-9*(1+math.Abs(direct[i])) {
					t.Fatalf("kernel lag %d: FFT %g vs direct %g", i, wantRaw[i], direct[i])
				}
			}
		}
		refNorm := feedPartition(bank.Stream(), x, nil)
		if len(refNorm) != len(wantNorm) {
			t.Fatalf("length %d, want %d", len(refNorm), len(wantNorm))
		}
		for i := range wantNorm {
			if math.Abs(refNorm[i]-wantNorm[i]) > 1e-9 {
				t.Fatalf("normalized lag %d: stream %g vs one-shot %g", i, refNorm[i], wantNorm[i])
			}
		}

		// Chunk boundaries straight from the fuzz input: up to 7 cuts.
		nc := int(header[1]) % 8
		cuts := make([]int, 0, nc)
		for k := 0; k < nc && k < len(body); k++ {
			cuts = append(cuts, int(body[k])*len(x)/256)
		}
		slices.Sort(cuts)
		gotNorm := feedPartition(bank.Stream(), x, cuts)
		for i := range refNorm {
			if gotNorm[i] != refNorm[i] {
				t.Fatalf("cuts %v: normalized lag %d not chunk-invariant: %v vs %v", cuts, i, gotNorm[i], refNorm[i])
			}
		}
	})
}
