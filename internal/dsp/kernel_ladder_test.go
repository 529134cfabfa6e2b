package dsp

import (
	"math"
	"math/cmplx"
	"math/rand"
	"sync"
	"testing"
)

// Exactness ladder for the radix-4/2 kernel rework: every power-of-two
// size from 8 to 2^20, covering both stage ladders (the packed
// half-length transform runs pure radix-4 when log2(n/2) is even and a
// mixed radix-4/2 ladder when it is odd — consecutive sizes alternate
// between the two). Small sizes compare every bin against the O(n²)
// naive DFT; large sizes spot-check a spread of bins against a direct
// DFT evaluated with exact integer phase arithmetic, plus a full inverse
// round-trip.

// dftBin evaluates spectrum bin k of the real signal x directly, with
// the angle reduced by integer arithmetic ((k·t) mod n) so the reference
// itself stays accurate at n = 2^20 where a naive accumulated angle
// would have drifted.
func dftBin(x []float64, k int) complex128 {
	n := len(x)
	var re, im float64
	for t, v := range x {
		idx := (k * t) % n
		ang := -2 * math.Pi * float64(idx) / float64(n)
		re += v * math.Cos(ang)
		im += v * math.Sin(ang)
	}
	return complex(re, im)
}

func TestRFFTLadderExactness(t *testing.T) {
	r := rand.New(rand.NewSource(61))
	for n := 8; n <= 1<<20; n *= 2 {
		x := randReal(r, n)
		got := make([]complex128, n/2+1)
		RFFT(got, x)
		if n <= 4096 {
			want := rfftNaive(x)
			if e := maxErrC(got, want); e > 1e-9*float64(n) {
				t.Errorf("n=%d: full naive compare max error %g", n, e)
			}
		} else {
			// Spot bins: the structural corners (0, n/4, n/2 — DC, the
			// self-conjugate fold midpoint, Nyquist) plus random bins.
			bins := []int{0, 1, n / 4, n/4 + 1, n / 2}
			for i := 0; i < 11; i++ {
				bins = append(bins, 2+r.Intn(n/2-2))
			}
			// Direct-sum reference error grows like sqrt(n)·eps·|x|₁;
			// scale the tolerance with the signal's 1-norm.
			var norm1 float64
			for _, v := range x {
				norm1 += math.Abs(v)
			}
			tol := 1e-15 * norm1 * math.Sqrt(float64(n)) / 32
			for _, k := range bins {
				want := dftBin(x, k)
				if d := cmplx.Abs(got[k] - want); d > tol {
					t.Errorf("n=%d bin %d: |Δ|=%g (tol %g)", n, k, d, tol)
				}
			}
		}
		back := make([]float64, n)
		inverseRFFT(back, got)
		for i := range x {
			if math.Abs(back[i]-x[i]) > 1e-10*float64(n) {
				t.Fatalf("n=%d: inverse roundtrip mismatch at %d", n, i)
			}
		}
	}
}

// TestPackedDIFMatchesDITOrder pins the structural contract between the
// two forward kernels: fftSoADIF consumes natural order and must emit
// bin perm[i] at position i — exactly the input order the DIT kernel
// (and the fold tables built on it) expect. A drift between the two
// ladders' digit orders would silently scramble every correlation.
func TestPackedDIFMatchesDITOrder(t *testing.T) {
	r := rand.New(rand.NewSource(62))
	for h := 2; h <= 1<<16; h *= 2 {
		x := randReal(r, 2*h)
		// DIT reference: natural-order packed spectrum via the gather path.
		nre, nim := make([]float64, h), make([]float64, h)
		rfftHalf(nre, nim, x)
		// DIF under test: permuted packed spectrum, no gather.
		zre, zim := make([]float64, h), make([]float64, h)
		rfftPacked(zre, zim, x)
		perm := permFor(h)
		for i := 0; i < h; i++ {
			k := perm[i]
			if math.Abs(zre[i]-nre[k]) > 1e-9*float64(h) || math.Abs(zim[i]-nim[k]) > 1e-9*float64(h) {
				t.Fatalf("h=%d: position %d (bin %d): DIF (%g,%g) vs DIT (%g,%g)",
					h, i, k, zre[i], zim[i], nre[k], nim[k])
			}
		}
	}
}

// TestConcurrentKernelTableConstruction hammers every lazily built
// kernel table family — digit-reversal permutations, per-stage SoA
// twiddles, untangle twiddles, fold tables and per-matcher fold spectra
// — from many goroutines at sizes chosen to collide on first
// construction. Under -race this proves the double-checked publication
// in tables.go and Matcher.spectrum. The two grids put both templates'
// spectra at blocks 256 and 1024.
func TestConcurrentKernelTableConstruction(t *testing.T) {
	sizes := []int{1 << 7, 1 << 9, 1 << 11, 1 << 13}
	tmpl := randReal(rand.New(rand.NewSource(63)), 96)
	banks := bothGrids(NewMatcher(tmpl), NewMatcher(tmpl[:80]))
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for _, n := range sizes {
				x := randReal(r, n)
				want := refNormalized(x, tmpl)
				for _, bank := range banks {
					got := scanParts(bank, x, nil)[0]
					for i := range want {
						if math.Abs(got[i]-want[i]) > 1e-9 {
							t.Errorf("n=%d block=%d lag %d: %g vs direct %g", n, bank.block, i, got[i], want[i])
							return
						}
					}
				}
			}
		}(int64(g))
	}
	wg.Wait()
}
