package dsp

import (
	"math"
	"math/rand"
	"testing"
)

func TestIsPeak(t *testing.T) {
	x := []float64{0, 1, 0.5, 0.5, 2, 1}
	cases := []struct {
		i    int
		want bool
	}{
		{0, false}, {1, true}, {2, false}, {3, false}, {4, true}, {5, false},
		{-1, false}, {6, false},
	}
	for _, c := range cases {
		if got := IsPeak(c.i, x); got != c.want {
			t.Errorf("IsPeak(%d) = %v, want %v", c.i, got, c.want)
		}
	}
	// Plateau: both plateau samples are >= neighbours.
	y := []float64{0, 1, 1, 0}
	if !IsPeak(1, y) || !IsPeak(2, y) {
		t.Error("plateau samples should be peaks")
	}
}

func TestFindPeaks(t *testing.T) {
	x := []float64{0, 3, 0, 1, 0, 5, 5, 0, 2}
	peaks := FindPeaks(x, 1.5)
	want := []Peak{{1, 3}, {5, 5}, {8, 2}}
	if len(peaks) != len(want) {
		t.Fatalf("got %d peaks %v, want %d", len(peaks), peaks, len(want))
	}
	for i := range want {
		if peaks[i] != want[i] {
			t.Errorf("peak %d = %v, want %v", i, peaks[i], want[i])
		}
	}
}

func TestFindPeaksThresholdExcludes(t *testing.T) {
	x := []float64{0, 1, 0, 2, 0}
	peaks := FindPeaks(x, 1.5)
	if len(peaks) != 1 || peaks[0].Index != 3 {
		t.Fatalf("got %v, want single peak at 3", peaks)
	}
}

func TestNoiseFloor(t *testing.T) {
	// Profile with signal in front, noise at the tail.
	profile := make([]float64, 300)
	r := rand.New(rand.NewSource(20))
	for i := 200; i < 300; i++ {
		profile[i] = 0.1 * r.NormFloat64()
	}
	profile[10] = 5
	nf := NoiseFloor(profile, 100)
	if nf < 0.05 || nf > 0.2 {
		t.Errorf("noise floor = %g, want ~0.1", nf)
	}
	if NoiseFloor(nil, 10) != 0 {
		t.Error("empty profile should give 0")
	}
	// tailLen larger than profile falls back to the whole profile.
	if got := NoiseFloor([]float64{3, 4}, 100); math.Abs(got-math.Sqrt(12.5)) > 1e-12 {
		t.Errorf("fallback floor = %g", got)
	}
}

func TestNormalize(t *testing.T) {
	x := []float64{-4, 2, 1}
	Normalize(x)
	if x[0] != -1 || x[1] != 0.5 || x[2] != 0.25 {
		t.Errorf("normalized = %v", x)
	}
	z := []float64{0, 0}
	Normalize(z)
	if z[0] != 0 || z[1] != 0 {
		t.Error("zero vector should be unchanged")
	}
}

func TestMaxHelpers(t *testing.T) {
	if i, v := Max(nil); i != -1 || !math.IsInf(v, -1) {
		t.Error("Max(nil) should be (-1, -Inf)")
	}
	if i, v := MaxAbs(nil); i != -1 || v != 0 {
		t.Error("MaxAbs(nil) should be (-1, 0)")
	}
	x := []float64{1, -7, 3}
	if i, v := MaxAbs(x); i != 1 || v != 7 {
		t.Errorf("MaxAbs = (%d,%g)", i, v)
	}
	if i, v := Max(x); i != 2 || v != 3 {
		t.Errorf("Max = (%d,%g)", i, v)
	}
}

func TestDBConversions(t *testing.T) {
	if DB(100) != 20 {
		t.Errorf("DB(100) = %g", DB(100))
	}
	if !math.IsInf(DB(0), -1) || !math.IsInf(DB(-1), -1) {
		t.Error("DB of non-positive should be -Inf")
	}
	for _, v := range []float64{0.5, 1, 7, 123} {
		if got := math.Pow(10, DB(v)/10); math.Abs(got-v) > 1e-9*v {
			t.Errorf("roundtrip %g -> %g", v, got)
		}
	}
}

func TestWindowPowerDB(t *testing.T) {
	x := make([]float64, 200)
	for i := 0; i < 100; i++ {
		x[i] = 0.1
	}
	for i := 100; i < 200; i++ {
		x[i] = 1.0
	}
	// Second window has 100x the power of the first: +20 dB.
	got := WindowPowerDB(x, 0, 100, 100)
	if math.Abs(got-20) > 1e-9 {
		t.Errorf("WindowPowerDB = %g, want 20", got)
	}
	// Degenerate windows.
	if v := WindowPowerDB(x, -5, 300, 10); v != 0 && !math.IsInf(v, 1) {
		t.Errorf("out-of-range windows gave %g", v)
	}
}

func TestAbsHelpers(t *testing.T) {
	gc := AbsComplex([]complex128{3 + 4i, -5})
	if math.Abs(gc[0]-5) > 1e-12 || math.Abs(gc[1]-5) > 1e-12 {
		t.Errorf("AbsComplex = %v", gc)
	}
}

func TestIsPeakWide(t *testing.T) {
	x := []float64{0, 1, 0.5, 0.8, 2, 1, 0.2, 0.3, 0.1}
	// Index 4 dominates any radius here.
	for r := 1; r <= 4; r++ {
		if !IsPeakWide(4, x, r) {
			t.Errorf("radius %d: index 4 should be a wide peak", r)
		}
	}
	// Index 1 is a local peak at radius 1 but loses to index 4 at radius 3.
	if !IsPeakWide(1, x, 1) {
		t.Error("index 1 should be a radius-1 peak")
	}
	if IsPeakWide(1, x, 3) {
		t.Error("index 1 should lose at radius 3")
	}
	// Edges clamp the window instead of panicking.
	if !IsPeakWide(0, []float64{5, 1}, 3) {
		t.Error("edge max should be a peak")
	}
	if IsPeakWide(-1, x, 1) || IsPeakWide(len(x), x, 1) {
		t.Error("out-of-range index cannot be a peak")
	}
	// Ties are allowed.
	if !IsPeakWide(1, []float64{1, 2, 2, 1}, 2) {
		t.Error("tied plateau should count")
	}
}
