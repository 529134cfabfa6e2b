package dsp

import (
	"math"
	"math/bits"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

// dftNaive is the O(N^2) reference DFT used to validate the fast paths.
func dftNaive(x []complex128, inverse bool) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	for k := 0; k < n; k++ {
		var s complex128
		for t := 0; t < n; t++ {
			ang := sign * 2 * math.Pi * float64(k) * float64(t) / float64(n)
			s += x[t] * cmplx.Rect(1, ang)
		}
		if inverse {
			s /= complex(float64(n), 0)
		}
		out[k] = s
	}
	return out
}

func randComplex(r *rand.Rand, n int) []complex128 {
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(r.NormFloat64(), r.NormFloat64())
	}
	return x
}

func maxErrC(a, b []complex128) float64 {
	var m float64
	for i := range a {
		if d := cmplx.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

func TestFFTMatchesNaiveDFT(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 4, 8, 16, 64, 256, 1024} {
		x := randComplex(r, n)
		want := dftNaive(x, false)
		got := append([]complex128(nil), x...)
		fftPow2(got, false)
		if e := maxErrC(got, want); e > 1e-9*float64(n) {
			t.Errorf("n=%d: FFT max error %g", n, e)
		}
	}
}

func TestIFFTInvertsFFT(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for _, n := range []int{2, 8, 32, 512} {
		x := randComplex(r, n)
		y := append([]complex128(nil), x...)
		fftPow2(y, false)
		NewPlan(len(y)).Inverse(y)
		if e := maxErrC(y, x); e > 1e-10*float64(n) {
			t.Errorf("n=%d: roundtrip error %g", n, e)
		}
	}
}

func TestBluesteinMatchesNaive(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for _, n := range []int{3, 5, 6, 7, 12, 15, 100, 173, 540, 1920} {
		x := randComplex(r, n)
		want := dftNaive(x, false)
		got := append([]complex128(nil), x...)
		NewPlan(n).Forward(got)
		if e := maxErrC(got, want); e > 1e-8*float64(n) {
			t.Errorf("n=%d: Bluestein max error %g", n, e)
		}
	}
}

func TestPlanInverseRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for _, n := range []int{1, 2, 3, 17, 64, 173, 1920} {
		p := NewPlan(n)
		x := randComplex(r, n)
		y := append([]complex128(nil), x...)
		p.Forward(y)
		p.Inverse(y)
		if e := maxErrC(y, x); e > 1e-8*float64(n) {
			t.Errorf("n=%d: plan roundtrip error %g", n, e)
		}
	}
}

func TestPlanReuse(t *testing.T) {
	// A plan must give identical results when reused (scratch fully reset).
	r := rand.New(rand.NewSource(5))
	p := NewPlan(360)
	x := randComplex(r, 360)
	a := append([]complex128(nil), x...)
	b := append([]complex128(nil), x...)
	p.Forward(a)
	// Run a different transform in between.
	other := randComplex(r, 360)
	p.Forward(other)
	p.Forward(b)
	if e := maxErrC(a, b); e > 0 {
		t.Errorf("plan reuse changed result, err=%g", e)
	}
}

func TestPlanLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	NewPlan(8).Forward(make([]complex128, 9))
}

func TestNextPow2(t *testing.T) {
	cases := map[int]int{1: 1, 2: 2, 3: 4, 4: 4, 5: 8, 1000: 1024, 1024: 1024, 1025: 2048}
	for in, want := range cases {
		if got := NextPow2(in); got != want {
			t.Errorf("NextPow2(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestNextPow2OverflowPanics(t *testing.T) {
	// The largest representable power of two must pass through unharmed...
	maxPow2 := 1 << (bits.UintSize - 2)
	if got := NextPow2(maxPow2); got != maxPow2 {
		t.Fatalf("NextPow2(max pow2) = %d, want identity", got)
	}
	// ...and anything beyond it must panic instead of silently wrapping to
	// a negative (1 << 63) length.
	for _, n := range []int{maxPow2 + 1, math.MaxInt} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NextPow2(%d) should panic, not overflow", n)
				}
			}()
			NextPow2(n)
		}()
	}
}

func TestNewPlanSharesBluesteinSetup(t *testing.T) {
	// Two plans of one length must share the cached chirp setup (the
	// expensive part); the transforms they run must stay identical.
	p1, p2 := NewPlan(1920), NewPlan(1920)
	if p1.bs == nil || p1.bs != p2.bs {
		t.Fatal("plans of equal length should share the cached Bluestein setup")
	}
	r := rand.New(rand.NewSource(9))
	x := randComplex(r, 1920)
	a := append([]complex128(nil), x...)
	b := append([]complex128(nil), x...)
	p1.Forward(a)
	p2.Forward(b)
	if e := maxErrC(a, b); e > 0 {
		t.Fatalf("shared-setup plans diverged, err=%g", e)
	}
}

func TestFFTLinearityProperty(t *testing.T) {
	// Property: fftPow2(a*x + b*y, false) == a*fftPow2(x, false) + b*fftPow2(y, false).
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 128
		x := randComplex(r, n)
		y := randComplex(r, n)
		a := complex(r.NormFloat64(), r.NormFloat64())
		b := complex(r.NormFloat64(), r.NormFloat64())
		mix := make([]complex128, n)
		for i := range mix {
			mix[i] = a*x[i] + b*y[i]
		}
		fftPow2(mix, false)
		fx := append([]complex128(nil), x...)
		fy := append([]complex128(nil), y...)
		fftPow2(fx, false)
		fftPow2(fy, false)
		for i := range mix {
			if cmplx.Abs(mix[i]-(a*fx[i]+b*fy[i])) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestParsevalProperty(t *testing.T) {
	// Property: sum |x|^2 == (1/N) sum |X|^2 for any length (Bluestein too).
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 50 + int(uint(seed)%900)
		x := randComplex(r, n)
		var tx float64
		for _, v := range x {
			tx += real(v)*real(v) + imag(v)*imag(v)
		}
		X := append([]complex128(nil), x...)
		NewPlan(n).Forward(X)
		var tX float64
		for _, v := range X {
			tX += real(v)*real(v) + imag(v)*imag(v)
		}
		return math.Abs(tx-tX/float64(n)) < 1e-6*tx
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestFFTImpulseIsFlat(t *testing.T) {
	x := make([]complex128, 64)
	x[0] = 1
	fftPow2(x, false)
	for i, v := range x {
		if cmplx.Abs(v-1) > 1e-12 {
			t.Fatalf("impulse spectrum not flat at bin %d: %v", i, v)
		}
	}
}

func TestFFTShiftTheorem(t *testing.T) {
	// A time shift multiplies the spectrum by a linear phase.
	n := 256
	r := rand.New(rand.NewSource(8))
	x := randComplex(r, n)
	shift := 17
	shifted := make([]complex128, n)
	for i := range x {
		shifted[(i+shift)%n] = x[i]
	}
	fx := append([]complex128(nil), x...)
	fftPow2(fx, false)
	fs := append([]complex128(nil), shifted...)
	fftPow2(fs, false)
	for k := 0; k < n; k++ {
		phase := cmplx.Rect(1, -2*math.Pi*float64(k*shift)/float64(n))
		if cmplx.Abs(fs[k]-fx[k]*phase) > 1e-8 {
			t.Fatalf("shift theorem violated at bin %d", k)
		}
	}
}

func BenchmarkFFT1024(b *testing.B) {
	x := randComplex(rand.New(rand.NewSource(1)), 1024)
	buf := make([]complex128, len(x))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		copy(buf, x)
		fftPow2(buf, false)
	}
}

func BenchmarkBluestein1920(b *testing.B) {
	x := randComplex(rand.New(rand.NewSource(1)), 1920)
	p := NewPlan(1920)
	buf := make([]complex128, len(x))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		copy(buf, x)
		p.Forward(buf)
	}
}
