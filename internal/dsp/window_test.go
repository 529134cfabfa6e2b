package dsp

import (
	"math"
	"testing"
)

func TestMakeWindowShapes(t *testing.T) {
	for _, w := range []Window{Rectangular, Hann, Hamming, Blackman} {
		win := MakeWindow(w, 65)
		if len(win) != 65 {
			t.Fatalf("%v: length %d", w, len(win))
		}
		// Symmetry.
		for i := 0; i < len(win)/2; i++ {
			if math.Abs(win[i]-win[len(win)-1-i]) > 1e-12 {
				t.Errorf("%v not symmetric at %d", w, i)
			}
		}
		// Peak at center is the window maximum.
		mid := win[len(win)/2]
		for i, v := range win {
			if v > mid+1e-12 {
				t.Errorf("%v: value at %d (%g) exceeds center (%g)", w, i, v, mid)
			}
		}
	}
	if MakeWindow(Hann, 0) != nil {
		t.Error("zero-length window should be nil")
	}
	one := MakeWindow(Hann, 1)
	if len(one) != 1 || one[0] != 1 {
		t.Errorf("single-sample window = %v, want [1]", one)
	}
}

func TestHannEndpointsZero(t *testing.T) {
	win := MakeWindow(Hann, 32)
	if math.Abs(win[0]) > 1e-12 || math.Abs(win[31]) > 1e-12 {
		t.Errorf("hann endpoints = %g, %g; want 0", win[0], win[31])
	}
}

func TestWindowString(t *testing.T) {
	names := map[Window]string{
		Rectangular: "rectangular", Hann: "hann", Hamming: "hamming",
		Blackman: "blackman", Window(99): "unknown",
	}
	for w, want := range names {
		if got := w.String(); got != want {
			t.Errorf("String(%d) = %q, want %q", int(w), got, want)
		}
	}
}

func TestApplyWindow(t *testing.T) {
	x := []float64{1, 1, 1, 1}
	win := []float64{0, 0.5, 0.5, 0}
	ApplyWindow(x, win)
	for i := range x {
		if x[i] != win[i] {
			t.Fatalf("apply mismatch at %d", i)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic on length mismatch")
		}
	}()
	ApplyWindow([]float64{1}, []float64{1, 2})
}

func TestSinc(t *testing.T) {
	if Sinc(0) != 1 {
		t.Error("Sinc(0) != 1")
	}
	for k := 1; k < 10; k++ {
		if v := Sinc(float64(k)); math.Abs(v) > 1e-12 {
			t.Errorf("Sinc(%d) = %g, want 0", k, v)
		}
	}
	if v := Sinc(0.5); math.Abs(v-2/math.Pi) > 1e-12 {
		t.Errorf("Sinc(0.5) = %g, want 2/pi", v)
	}
}

func TestFIRBandpassResponse(t *testing.T) {
	const fs = 44100.0
	h := FIRBandpass(301, 1000, 5000, fs)
	gain := func(f float64) float64 {
		// Evaluate |H(e^{jw})| directly.
		var re, im float64
		w := 2 * math.Pi * f / fs
		for n, v := range h {
			re += v * math.Cos(w*float64(n))
			im -= v * math.Sin(w*float64(n))
		}
		return math.Hypot(re, im)
	}
	if g := gain(3000); g < 0.9 || g > 1.1 {
		t.Errorf("passband gain at 3 kHz = %g, want ~1", g)
	}
	if g := gain(200); g > 0.05 {
		t.Errorf("stopband gain at 200 Hz = %g, want ~0", g)
	}
	if g := gain(9000); g > 0.05 {
		t.Errorf("stopband gain at 9 kHz = %g, want ~0", g)
	}
}

func TestFIRBandpassDegenerate(t *testing.T) {
	if FIRBandpass(0, 100, 200, 1000) != nil {
		t.Error("zero taps should be nil")
	}
	h := FIRBandpass(11, 500, 400, 1000) // high <= low
	for _, v := range h {
		if v != 0 {
			t.Fatal("inverted band should give zero filter")
		}
	}
	// Clamping: negative low and beyond-Nyquist high should not blow up.
	h = FIRBandpass(21, -10, 1e6, 1000)
	if len(h) != 21 {
		t.Fatal("clamped filter has wrong length")
	}
}

func TestFilterImpulseGivesTaps(t *testing.T) {
	h := []float64{0.25, 0.5, 0.25}
	x := make([]float64, 8)
	x[0] = 1
	y := filter(h, x)
	for i := range h {
		if math.Abs(y[i]-h[i]) > 1e-12 {
			t.Fatalf("impulse response mismatch at %d", i)
		}
	}
	for i := len(h); i < len(y); i++ {
		if y[i] != 0 {
			t.Fatalf("tail should be zero at %d", i)
		}
	}
}
