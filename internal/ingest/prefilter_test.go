package ingest_test

import (
	"math"
	"math/rand"
	"testing"

	"uwpos/internal/ingest"
	"uwpos/internal/sig"
)

// prefilterRef is the streaming FIR loop the pipeline ran before it
// called dsp.FilterFrom, kept as the reference: carried raw history, the
// per-output warm-up clamp, taps summed with k ascending, then the
// group-delay drop of the first delay outputs and delay zeros at Close.
type prefilterRef struct {
	fir             []float64
	delay           int
	tail            []float64
	tailLen, rawFed int
	out             []float64
}

func newPrefilterRef(fir []float64) *prefilterRef {
	return &prefilterRef{fir: fir, delay: (len(fir) - 1) / 2, tail: make([]float64, len(fir)-1)}
}

func (r *prefilterRef) push(chunk []float64) {
	n := len(chunk)
	fbuf := append(append([]float64(nil), r.tail[:r.tailLen]...), chunk...)
	fout := make([]float64, n)
	for j := 0; j < n; j++ {
		m := r.rawFed + j // global causal output index
		kmax := len(r.fir)
		if m+1 < kmax {
			kmax = m + 1
		}
		base := r.tailLen + j
		var sum float64
		for k := 0; k < kmax; k++ {
			sum += float64(r.fir[k] * fbuf[base-k])
		}
		fout[j] = sum
	}
	r.rawFed += n
	keep := min(len(r.fir)-1, r.rawFed)
	copy(r.tail, fbuf[len(fbuf)-keep:])
	r.tailLen = keep
	skip := min(max(r.delay-(r.rawFed-n), 0), n)
	r.out = append(r.out, fout[skip:]...)
}

func (r *prefilterRef) close() {
	r.out = append(r.out, make([]float64, min(r.delay, r.rawFed))...)
}

// TestPrefilterMatchesReferenceLoop: for odd filter lengths 1–299 and
// streams shorter than, around and far beyond the filter, every random
// buffer partition's filtered stream is bit-identical to the reference
// loop's — so the history/warm-up split the pipeline hands dsp.FilterFrom
// reproduces the hand-written loop exactly.
func TestPrefilterMatchesReferenceLoop(t *testing.T) {
	const fs = 44100.0
	bank := testBank(fs)
	rng := rand.New(rand.NewSource(13))
	firs := [][]float64{sig.BandLimitFIR(1000, 5000, fs)}
	for _, n := range []int{1, 3, 9, 31, 101, 299} {
		firs = append(firs, noiseStream(n, int64(n)))
	}
	for _, fir := range firs {
		for _, n := range []int{0, 5, len(fir) / 2, len(fir) + 3, 3000 + rng.Intn(2000)} {
			stream := noiseStream(n, int64(7*n+len(fir)))
			for trial := 0; trial < 4; trial++ {
				cuts := randomCuts(rng, n, 1+rng.Intn(12))
				pipe := ingest.New(ingest.Config{Bank: bank, Prefilter: fir})
				tap := &chunkTap{}
				pipe.Register(tap)
				feedPartition(pipe, stream, cuts)

				ref := newPrefilterRef(fir)
				prev := 0
				for _, c := range append(cuts, n) {
					ref.push(stream[prev:c])
					prev = c
				}
				ref.close()

				if len(tap.samples) != len(ref.out) {
					t.Fatalf("fir %d, stream %d, trial %d: %d samples, want %d",
						len(fir), n, trial, len(tap.samples), len(ref.out))
				}
				for i, v := range tap.samples {
					if math.Float64bits(v) != math.Float64bits(ref.out[i]) {
						t.Fatalf("fir %d, stream %d, trial %d: sample %d: %g != %g",
							len(fir), n, trial, i, v, ref.out[i])
					}
				}
			}
		}
	}
}
