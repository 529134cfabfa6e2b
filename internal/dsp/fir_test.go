package dsp

import (
	"math"
	"math/rand"
	"testing"
)

// filterRef is the one-output-at-a-time direct-form loop Filter ran
// before the blocked kernel, kept as the reference for FilterFrom's
// summation contract.
func filterRef(h, x []float64) []float64 {
	out := make([]float64, len(x))
	for n := range x {
		var s float64
		kmax := len(h)
		if n+1 < kmax {
			kmax = n + 1
		}
		for k := 0; k < kmax; k++ {
			s += h[k] * x[n-k]
		}
		out[n] = s
	}
	return out
}

func requireSameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d samples, want %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: sample %d: %x (%g) != %x (%g)", what, i,
				math.Float64bits(got[i]), got[i], math.Float64bits(want[i]), want[i])
		}
	}
}

// TestFilterFromMatchesReference: for every filter length 1–300, over
// streams shorter than the filter, around it and not a multiple of the
// block width, Filter is bit-identical to the reference loop — and so is
// every buffer of a random streaming partition, computed the way the
// ingest prefilter computes it: min(len(h)-1, rawFed) carried history
// samples ahead of the buffer, outputs from the history's end on.
func TestFilterFromMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for nh := 1; nh <= 300; nh++ {
		h := randReal(rng, nh)
		for _, n := range []int{0, 1, 7, nh / 2, nh - 1, nh, nh + 1, nh + 9, 2*nh + 8 + rng.Intn(64)} {
			x := randReal(rng, n)
			if n > 20 {
				for i := rng.Intn(n / 2); i < n/2+5; i++ {
					x[i] = 0 // a run of silence
				}
			}
			want := filterRef(h, x)
			requireSameBits(t, "Filter", filter(h, x), want)

			for rawFed := 0; rawFed < n; {
				buf := min(1+rng.Intn(2*nh+9), n-rawFed)
				tailLen := min(nh-1, rawFed)
				got := make([]float64, buf)
				FilterFrom(got, h, x[rawFed-tailLen:rawFed+buf], tailLen)
				requireSameBits(t, "FilterFrom split", got, want[rawFed:rawFed+buf])
				rawFed += buf
			}
		}
	}
}

// filter runs FilterFrom over the whole of x from zero initial state.
func filter(h, x []float64) []float64 {
	out := make([]float64, len(x))
	FilterFrom(out, h, x, 0)
	return out
}

func TestFilterFromEmptyTaps(t *testing.T) {
	got := filter(nil, []float64{1, 2, 3, 4, 5, 6, 7, 8, 9})
	requireSameBits(t, "empty h", got, make([]float64, 9))
}

// BenchmarkFilter is one 4096-sample ingest buffer through the 255-tap
// band-limit prefilter, history carried ahead of it.
func BenchmarkFilter(b *testing.B) {
	const nh, n = 255, 4096
	r := rand.New(rand.NewSource(1))
	h := randReal(r, nh)
	x := randReal(r, nh-1+n)
	dst := make([]float64, n)
	b.SetBytes(8 * n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FilterFrom(dst, h, x, nh-1)
	}
}
