package dsp

import (
	"math"
	"math/rand"
	"testing"

	"uwpos/internal/kerneltest"
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
			s += float64(h[k] * x[n-k])
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
// samples ahead of the buffer, outputs from the history's end on. Then,
// around every AVX2 block edge (15–49 outputs past the warm-up), with
// and without warm-up outputs ahead of them, over inputs holding special
// values, into a dst at an odd offset of a guarded buffer: every output
// matches and no value outside dst changes. Both block paths run.
func TestFilterFromMatchesReference(t *testing.T) {
	kerneltest.ForEachPath(t, HasAVX2(), filterFromMatchesReference)
}

func filterFromMatchesReference(t *testing.T, avx2 bool) {
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
			got := make([]float64, n)
			filterFrom(got, h, x, 0, avx2)
			requireSameBits(t, "Filter", got, want)

			for rawFed := 0; rawFed < n; {
				buf := min(1+rng.Intn(2*nh+9), n-rawFed)
				tailLen := min(nh-1, rawFed)
				got := make([]float64, buf)
				filterFrom(got, h, x[rawFed-tailLen:rawFed+buf], tailLen, avx2)
				requireSameBits(t, "FilterFrom split", got, want[rawFed:rawFed+buf])
				rawFed += buf
			}
		}
	}

	for _, nh := range []int{1, 2, 15, 16, 17, 255} {
		for _, n := range []int{15, 16, 17, 31, 32, 33, 47, 48, 49} {
			for _, warm := range []int{0, nh - 1} {
				for _, off := range []int{1, 3} {
					h := randReal(rng, nh)
					if rng.Intn(2) == 0 {
						kerneltest.Sprinkle(rng, h)
					}
					x := randReal(rng, nh-1+n)
					kerneltest.Sprinkle(rng, x)
					from := nh - 1 - warm
					want := filterRef(h, x)[from:]
					dst, intact := kerneltest.Guarded(off, warm+n)
					filterFrom(dst, h, x, from, avx2)
					requireSameBits(t, "FilterFrom edge", dst, want)
					if !intact() {
						t.Fatalf("nh %d, n %d, warm %d, offset %d: a value outside dst changed", nh, n, warm, off)
					}
				}
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

// TestFilterFromEmptyTaps: with no taps every output is +0, through the
// 8-output blocks and the remainder alike. filterFrom hands no empty h to
// the AVX2 kernel, whose tap loop needs one tap, so the avx2 leg checks
// that guard.
func TestFilterFromEmptyTaps(t *testing.T) {
	x := make([]float64, 41)
	for i := range x {
		x[i] = float64(i + 1)
	}
	kerneltest.ForEachPath(t, HasAVX2(), func(t *testing.T, avx2 bool) {
		got := make([]float64, len(x))
		filterFrom(got, nil, x, 0, avx2)
		requireSameBits(t, "empty h", got, make([]float64, len(x)))
	})
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
