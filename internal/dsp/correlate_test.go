package dsp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCrossCorrelateFindsEmbeddedTemplate(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	h := make([]float64, 200)
	for i := range h {
		h[i] = r.NormFloat64()
	}
	x := make([]float64, 2000)
	for i := range x {
		x[i] = 0.01 * r.NormFloat64()
	}
	const at = 700
	for i, v := range h {
		x[at+i] += v
	}
	corr := CrossCorrelate(x, h)
	idx, _ := Max(corr)
	if idx != at {
		t.Fatalf("peak at %d, want %d", idx, at)
	}
}

func TestCrossCorrelateDirectEqualsFFT(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	x := make([]float64, 513)
	for i := range x {
		x[i] = r.NormFloat64()
	}
	h := make([]float64, 100) // >= 64 so public path uses FFT
	for i := range h {
		h[i] = r.NormFloat64()
	}
	fast := CrossCorrelate(x, h)
	slow := xcorrDirect(x, h, false)
	if len(fast) != len(slow) {
		t.Fatalf("length mismatch %d vs %d", len(fast), len(slow))
	}
	for i := range fast {
		if math.Abs(fast[i]-slow[i]) > 1e-9 {
			t.Fatalf("mismatch at %d: %g vs %g", i, fast[i], slow[i])
		}
	}
}

func TestCrossCorrelateEdgeCases(t *testing.T) {
	if CrossCorrelate(nil, []float64{1}) != nil {
		t.Error("nil x should give nil")
	}
	if CrossCorrelate([]float64{1}, nil) != nil {
		t.Error("nil h should give nil")
	}
	if CrossCorrelate([]float64{1, 2}, []float64{1, 2, 3}) != nil {
		t.Error("h longer than x should give nil")
	}
	got := CrossCorrelate([]float64{1, 2, 3}, []float64{1, 2, 3})
	if len(got) != 1 || math.Abs(got[0]-14) > 1e-12 {
		t.Errorf("equal-length correlation = %v, want [14]", got)
	}
}

func TestNormalizedCrossCorrelateBounds(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		x := make([]float64, 400)
		for i := range x {
			x[i] = r.NormFloat64()
		}
		h := make([]float64, 80)
		for i := range h {
			h[i] = r.NormFloat64()
		}
		for _, v := range NormalizedCrossCorrelate(x, h) {
			if v > 1+1e-9 || v < -1-1e-9 || math.IsNaN(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestNormalizedCrossCorrelatePerfectMatchIsOne(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	h := make([]float64, 128)
	for i := range h {
		h[i] = r.NormFloat64()
	}
	x := make([]float64, 512)
	copy(x[200:], h)
	corr := NormalizedCrossCorrelate(x, h)
	if math.Abs(corr[200]-1) > 1e-9 {
		t.Fatalf("exact match correlation = %g, want 1", corr[200])
	}
	// Scaling x must not change the normalized value.
	for i := range x {
		x[i] *= 37.5
	}
	corr = NormalizedCrossCorrelate(x, h)
	if math.Abs(corr[200]-1) > 1e-9 {
		t.Fatalf("scaled match correlation = %g, want 1", corr[200])
	}
}

func TestNormalizedCrossCorrelateZeroWindow(t *testing.T) {
	x := make([]float64, 100) // all zeros
	h := []float64{1, -1, 1}
	for _, v := range NormalizedCrossCorrelate(x, h) {
		if v != 0 {
			t.Fatalf("zero-energy window gave %g, want 0", v)
		}
	}
	// Zero-energy template.
	x[3] = 1
	for _, v := range NormalizedCrossCorrelate(x, make([]float64, 4)) {
		if v != 0 {
			t.Fatalf("zero template gave %g, want 0", v)
		}
	}
}

func TestSegmentCorrelation(t *testing.T) {
	a := []float64{1, 2, 3, 4}
	if got := SegmentCorrelation(a, a); math.Abs(got-1) > 1e-12 {
		t.Errorf("self correlation = %g, want 1", got)
	}
	neg := []float64{-1, -2, -3, -4}
	if got := SegmentCorrelation(a, neg); math.Abs(got+1) > 1e-12 {
		t.Errorf("anti correlation = %g, want -1", got)
	}
	if got := SegmentCorrelation(a, []float64{1, 2}); got != 0 {
		t.Errorf("length mismatch should give 0, got %g", got)
	}
	if got := SegmentCorrelation(a, make([]float64, 4)); got != 0 {
		t.Errorf("zero-energy should give 0, got %g", got)
	}
}

func TestConvolveMatchesNaive(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	x := make([]float64, 75)
	k := make([]float64, 23)
	for i := range x {
		x[i] = r.NormFloat64()
	}
	for i := range k {
		k[i] = r.NormFloat64()
	}
	got := Convolve(x, k)
	want := make([]float64, len(x)+len(k)-1)
	for i := range x {
		for j := range k {
			want[i+j] += x[i] * k[j]
		}
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Fatalf("mismatch at %d: %g vs %g", i, got[i], want[i])
		}
	}
}

func TestComplexConvolveIdentity(t *testing.T) {
	// Convolving with a unit impulse returns the input (circularly).
	n := 173
	r := rand.New(rand.NewSource(14))
	a := randComplex(r, n)
	d := make([]complex128, n)
	d[0] = 1
	got := ComplexConvolve(a, d)
	if e := maxErrC(got, a); e > 1e-9 {
		t.Fatalf("identity convolution error %g", e)
	}
}

func TestCorrelationShiftProperty(t *testing.T) {
	// Shifting the embedded template shifts the correlation peak equally.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		h := make([]float64, 64)
		for i := range h {
			h[i] = r.NormFloat64()
		}
		shift := int(uint(seed) % 500)
		x := make([]float64, 700)
		copy(x[shift:], h)
		idx, _ := Max(CrossCorrelate(x, h))
		return idx == shift
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func BenchmarkCrossCorrelatePreambleLen(b *testing.B) {
	// Realistic sizes: 2 s of audio at 44.1 kHz against a 9840-sample preamble.
	r := rand.New(rand.NewSource(1))
	x := make([]float64, 88200)
	for i := range x {
		x[i] = r.NormFloat64()
	}
	h := make([]float64, 9840)
	for i := range h {
		h[i] = r.NormFloat64()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		CrossCorrelate(x, h)
	}
}

// TestPooledCorrelateVariants: the pooled variants must match the plain
// ones exactly and hand back buffers the pool will accept.
func TestPooledCorrelateVariants(t *testing.T) {
	x := make([]float64, 900)
	h := make([]float64, 128)
	for i := range x {
		x[i] = float64(i%17) - 8
	}
	for i := range h {
		h[i] = float64(i%5) - 2
	}
	for name, pair := range map[string][2][]float64{
		"cross":      {CrossCorrelate(x, h), CrossCorrelatePooled(x, h)},
		"normalized": {NormalizedCrossCorrelate(x, h), NormalizedCrossCorrelatePooled(x, h)},
	} {
		plain, pooled := pair[0], pair[1]
		if len(plain) != len(pooled) {
			t.Fatalf("%s: length %d vs %d", name, len(plain), len(pooled))
		}
		for i := range plain {
			if plain[i] != pooled[i] {
				t.Fatalf("%s: lag %d differs: %v vs %v", name, i, plain[i], pooled[i])
			}
		}
		PutF64(pooled)
	}
}
