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
	corr := NewMatcher(h).correlate(x, false, false)
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
	h := make([]float64, 100) // >= 64 so the matcher takes the FFT path
	for i := range h {
		h[i] = r.NormFloat64()
	}
	fast := NewMatcher(h).correlate(x, false, false)
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
	if NewMatcher([]float64{1}).correlate(nil, false, false) != nil {
		t.Error("nil x should give nil")
	}
	if NewMatcher(nil).correlate([]float64{1}, false, false) != nil {
		t.Error("nil h should give nil")
	}
	if NewMatcher([]float64{1, 2, 3}).correlate([]float64{1, 2}, false, false) != nil {
		t.Error("h longer than x should give nil")
	}
	got := NewMatcher([]float64{1, 2, 3}).correlate([]float64{1, 2, 3}, false, false)
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
		for _, v := range NewMatcher(h).correlate(x, true, false) {
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
	corr := NewMatcher(h).correlate(x, true, false)
	if math.Abs(corr[200]-1) > 1e-9 {
		t.Fatalf("exact match correlation = %g, want 1", corr[200])
	}
	// Scaling x must not change the normalized value.
	for i := range x {
		x[i] *= 37.5
	}
	corr = NewMatcher(h).correlate(x, true, false)
	if math.Abs(corr[200]-1) > 1e-9 {
		t.Fatalf("scaled match correlation = %g, want 1", corr[200])
	}
}

func TestNormalizedCrossCorrelateZeroWindow(t *testing.T) {
	x := make([]float64, 100) // all zeros
	h := []float64{1, -1, 1}
	for _, v := range NewMatcher(h).correlate(x, true, false) {
		if v != 0 {
			t.Fatalf("zero-energy window gave %g, want 0", v)
		}
	}
	// Zero-energy template.
	x[3] = 1
	for _, v := range NewMatcher(make([]float64, 4)).correlate(x, true, false) {
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
		idx, _ := Max(NewMatcher(h).correlate(x, false, false))
		return idx == shift
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestPooledCorrelateVariants: the bank's pooled scan hands back rows the
// pool accepts, and a scan drawing those recycled (dirtied) rows is
// bit-identical to the first.
func TestPooledCorrelateVariants(t *testing.T) {
	x := make([]float64, 900)
	h := make([]float64, 128)
	for i := range x {
		x[i] = float64(i%17) - 8
	}
	for i := range h {
		h[i] = float64(i%5) - 2
	}
	b := NewMatcherBank(NewMatcher(h))
	first := b.NormalizedCrossCorrelateAllPooled(x)[0]
	want := append([]float64(nil), first...)
	for i := range first {
		first[i] = math.NaN()
	}
	PutF64(first)
	got := b.NormalizedCrossCorrelateAllPooled(x)[0]
	if len(got) != len(want) {
		t.Fatalf("length %d vs %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("lag %d differs after recycling: %v vs %v", i, got[i], want[i])
		}
	}
	PutF64(got)
}

// refNormalized is the reference normalized correlation the FFT paths
// are checked against: the direct sliding dot product, divided by the
// window and template energies.
func refNormalized(x, h []float64) []float64 {
	r := xcorrDirect(x, h, false)
	var eh float64
	for _, v := range h {
		eh += v * v
	}
	normalizeByWindowEnergy(r, x, len(h), eh)
	return r
}
