package dsp

import (
	"math"
	"math/cmplx"
	"math/rand"
	"sync"
	"testing"
)

func randReal(r *rand.Rand, n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = r.NormFloat64()
	}
	return x
}

// rfftNaive is the O(N^2) reference: the first n/2+1 bins of the DFT of a
// real signal.
func rfftNaive(x []float64) []complex128 {
	n := len(x)
	out := make([]complex128, n/2+1)
	for k := range out {
		var s complex128
		for t, v := range x {
			ang := -2 * math.Pi * float64(k) * float64(t) / float64(n)
			s += complex(v, 0) * cmplx.Rect(1, ang)
		}
		out[k] = s
	}
	return out
}

func TestRFFTMatchesNaiveDFT(t *testing.T) {
	r := rand.New(rand.NewSource(20))
	for _, n := range []int{1, 2, 4, 8, 16, 64, 256, 1024} {
		x := randReal(r, n)
		want := rfftNaive(x)
		got := make([]complex128, n/2+1)
		RFFT(got, x)
		if e := maxErrC(got, want); e > 1e-9*float64(n) {
			t.Errorf("n=%d: RFFT max error %g", n, e)
		}
	}
}

func TestRFFTMatchesFullComplexFFT(t *testing.T) {
	// RFFT bins must equal the first half of the full complex FFT, and the
	// implied upper half must satisfy conjugate symmetry.
	r := rand.New(rand.NewSource(21))
	n := 512
	x := randReal(r, n)
	full := make([]complex128, n)
	for i, v := range x {
		full[i] = complex(v, 0)
	}
	fftPow2(full, false, useAVX2)
	half := make([]complex128, n/2+1)
	RFFT(half, x)
	for k := 0; k <= n/2; k++ {
		if cmplx.Abs(half[k]-full[k]) > 1e-9 {
			t.Fatalf("bin %d: RFFT %v vs FFT %v", k, half[k], full[k])
		}
	}
	for k := 1; k < n/2; k++ {
		if cmplx.Abs(cmplx.Conj(half[k])-full[n-k]) > 1e-9 {
			t.Fatalf("conjugate symmetry broken at bin %d", k)
		}
	}
}

func TestRFFTOddLengthViaPadding(t *testing.T) {
	// Odd/awkward payload lengths reach RFFT zero-padded to the next power
	// of two (how every correlation path uses it); the padded spectrum must
	// match the naive DFT of the padded signal.
	r := rand.New(rand.NewSource(22))
	for _, n := range []int{3, 5, 17, 100, 173, 300, 540} {
		m := NextPow2(n)
		pad := make([]float64, m)
		copy(pad, randReal(r, n))
		want := rfftNaive(pad)
		got := make([]complex128, m/2+1)
		RFFT(got, pad)
		if e := maxErrC(got, want); e > 1e-9*float64(m) {
			t.Errorf("n=%d (padded to %d): RFFT max error %g", n, m, e)
		}
	}
}

// inverseRFFT inverts an RFFT spectrum (bins 0..n/2) into the length-n
// real signal through the full complex inverse, rebuilding the upper
// bins from conjugate symmetry.
func inverseRFFT(dst []float64, spec []complex128) {
	n := len(dst)
	full := make([]complex128, n)
	copy(full, spec)
	for k := n/2 + 1; k < n; k++ {
		full[k] = cmplx.Conj(spec[n-k])
	}
	NewPlan(n).Inverse(full)
	for i := range dst {
		dst[i] = real(full[i])
	}
}

func TestIRFFTInvertsRFFT(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	for _, n := range []int{1, 2, 4, 8, 32, 256, 2048} {
		x := randReal(r, n)
		spec := make([]complex128, n/2+1)
		RFFT(spec, x)
		back := make([]float64, n)
		inverseRFFT(back, spec)
		for i := range x {
			if math.Abs(back[i]-x[i]) > 1e-10*float64(n) {
				t.Fatalf("n=%d: roundtrip mismatch at %d: %g vs %g", n, i, back[i], x[i])
			}
		}
	}
}

func TestRFFTDoesNotModifyInput(t *testing.T) {
	r := rand.New(rand.NewSource(24))
	x := randReal(r, 128)
	orig := append([]float64(nil), x...)
	spec := make([]complex128, 65)
	RFFT(spec, x)
	for i := range x {
		if x[i] != orig[i] {
			t.Fatalf("RFFT modified input at %d", i)
		}
	}
}

func TestRFFTPanicsOnBadLengths(t *testing.T) {
	for name, fn := range map[string]func(){
		"non-pow2 input": func() { RFFT(make([]complex128, 2), make([]float64, 3)) },
		"short output":   func() { RFFT(make([]complex128, 4), make([]float64, 8)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

// TestConcurrentTransformsShareTables hammers the package twiddle/bit-rev
// tables and the Bluestein cache from many goroutines at mixed sizes.
// Run under -race this proves the published tables are safe to share.
func TestConcurrentTransformsShareTables(t *testing.T) {
	sizes := []int{8, 64, 256, 1024, 4096}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < 20; i++ {
				n := sizes[i%len(sizes)]
				x := randReal(r, n)
				spec := make([]complex128, n/2+1)
				RFFT(spec, x)
				back := make([]float64, n)
				inverseRFFT(back, spec)
				for j := range x {
					if math.Abs(back[j]-x[j]) > 1e-8 {
						t.Errorf("goroutine %d: roundtrip mismatch", seed)
						return
					}
				}
				// Exercise the Bluestein path (shared chirp cache) too.
				c := randComplex(r, 173)
				p := NewPlan(173)
				p.Forward(c)
				p.Inverse(c)
			}
		}(int64(g))
	}
	wg.Wait()
}

func BenchmarkRFFT(b *testing.B) {
	// The padded length of a 2 s stream correlation against a
	// preamble-length template: 131072 samples.
	const n = 1 << 17
	x := randReal(rand.New(rand.NewSource(1)), n)
	spec := make([]complex128, n/2+1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		RFFT(spec, x)
	}
}
