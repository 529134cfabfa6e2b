package dsp

import (
	"math"
	"slices"
	"testing"
)

// FuzzBankStreamChunking fuzzes signal content and chunk-split points of
// a one-template bank session, at both block sizes, against two
// references: the direct normalized correlation (rounding-level
// tolerance — it pins the FFT kernel) and the single-chunk feed
// (bit-exact — same absolute block grid by construction). The template is
// the stream's own prefix so the fuzzer controls correlation structure
// (plateaus, exact ties, constants) directly through the input bytes.
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
		wantNorm := refNormalized(x, x[:hlen])

		// Chunk boundaries straight from the fuzz input: up to 7 cuts.
		nc := int(header[1]) % 8
		cuts := make([]int, 0, nc)
		for k := 0; k < nc && k < len(body); k++ {
			cuts = append(cuts, int(body[k])*len(x)/256)
		}
		slices.Sort(cuts)
		for _, bank := range bothGrids(NewMatcher(x[:hlen])) {
			refNorm := scanParts(bank, x, nil)[0]
			if len(refNorm) != len(wantNorm) {
				t.Fatalf("block=%d: length %d, want %d", bank.block, len(refNorm), len(wantNorm))
			}
			for i := range wantNorm {
				if math.Abs(refNorm[i]-wantNorm[i]) > 1e-9 {
					t.Fatalf("block=%d: normalized lag %d: stream %g vs direct %g", bank.block, i, refNorm[i], wantNorm[i])
				}
			}
			gotNorm := scanParts(bank, x, cuts)[0]
			for i := range refNorm {
				if gotNorm[i] != refNorm[i] {
					t.Fatalf("block=%d cuts %v: normalized lag %d not chunk-invariant: %v vs %v", bank.block, cuts, i, gotNorm[i], refNorm[i])
				}
			}
		}
	})
}
