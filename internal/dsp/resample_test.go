package dsp

import (
	"math"
	"testing"
)

func TestResampleLinearIdentity(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	y := ResampleLinear(x, 1.0)
	if len(y) != len(x) {
		t.Fatalf("identity length %d, want %d", len(y), len(x))
	}
	for i := range x {
		if math.Abs(y[i]-x[i]) > 1e-12 {
			t.Fatalf("identity mismatch at %d", i)
		}
	}
}

func TestResampleLinearUpsampleSine(t *testing.T) {
	const n = 500
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Sin(2 * math.Pi * 5 * float64(i) / n)
	}
	y := ResampleLinear(x, 2.0)
	// Interpolated signal should match the analytic sine closely.
	for i := 0; i < len(y); i++ {
		want := math.Sin(2 * math.Pi * 5 * float64(i) / (2 * n))
		if math.Abs(y[i]-want) > 0.01 {
			t.Fatalf("upsample error %g at %d", math.Abs(y[i]-want), i)
		}
	}
}

func TestResampleLinearSkewPPM(t *testing.T) {
	// A 100 ppm skew over 44100 samples shifts the end by ~4.4 samples.
	n := 44100
	x := make([]float64, n)
	for i := range x {
		x[i] = float64(i)
	}
	y := ResampleLinear(x, 1+100e-6)
	if len(y) <= n {
		t.Fatalf("skewed output should be longer: %d vs %d", len(y), n)
	}
	// Sample y[n-1] corresponds to input position (n-1)/(1+1e-4).
	wantPos := float64(n-1) / (1 + 100e-6)
	if math.Abs(y[n-1]-wantPos) > 0.01 {
		t.Fatalf("skew position mismatch: got %g want %g", y[n-1], wantPos)
	}
}

func TestResampleDegenerate(t *testing.T) {
	if ResampleLinear(nil, 1) != nil {
		t.Error("nil input should give nil")
	}
	if ResampleLinear([]float64{1}, 0) != nil {
		t.Error("zero ratio should give nil")
	}
	if ResampleSinc(nil, 1, 8) != nil {
		t.Error("nil sinc input should give nil")
	}
	if ResampleSinc([]float64{1, 2}, -1, 8) != nil {
		t.Error("negative ratio should give nil")
	}
}

func TestResampleSincBeatsLinearOnSine(t *testing.T) {
	const n = 2000
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Sin(2 * math.Pi * 200 * float64(i) / n) // fairly high freq
	}
	ratio := 1.037
	lin := ResampleLinear(x, ratio)
	snc := ResampleSinc(x, ratio, 16)
	errAt := func(y []float64) float64 {
		var worst float64
		for i := 50; i < len(y)-50; i++ { // skip edges
			want := math.Sin(2 * math.Pi * 200 * (float64(i) / ratio) / n)
			if e := math.Abs(y[i] - want); e > worst {
				worst = e
			}
		}
		return worst
	}
	le, se := errAt(lin), errAt(snc)
	if se >= le {
		t.Errorf("sinc error %g should beat linear error %g", se, le)
	}
	if se > 0.01 {
		t.Errorf("sinc interpolation error too large: %g", se)
	}
}

func TestFractionalDelayTaps(t *testing.T) {
	h := make([]float64, 33)
	FractionalDelayTaps(h, 0.5)
	var sum float64
	for _, v := range h {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("DC gain = %g, want 1", sum)
	}
	FractionalDelayTaps(nil, 0.3) // an empty kernel is a no-op, not a panic
	// Applying the kernel to a sine should shift it by (taps-1)/2 + frac.
	const n, f = 512, 10.0
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Sin(2 * math.Pi * f * float64(i) / n)
	}
	frac := 0.37
	taps := make([]float64, 33)
	FractionalDelayTaps(taps, frac)
	y := filter(taps, x)
	delay := float64(len(taps)-1)/2 + frac
	for i := 100; i < n-100; i++ {
		want := math.Sin(2 * math.Pi * f * (float64(i) - delay) / n)
		if math.Abs(y[i]-want) > 0.02 {
			t.Fatalf("fractional delay error %g at %d", math.Abs(y[i]-want), i)
		}
	}
}

func TestMixDown(t *testing.T) {
	// Mixing a cosine at f down by f produces a DC term of amplitude 1/2.
	const fs, f, n = 44100.0, 3000.0, 4410
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Cos(2 * math.Pi * f * float64(i) / fs)
	}
	mixed := MixDown(x, f, fs)
	var mean complex128
	for _, v := range mixed {
		mean += v
	}
	mean /= complex(float64(n), 0)
	if math.Abs(real(mean)-0.5) > 0.01 || math.Abs(imag(mean)) > 0.01 {
		t.Errorf("mixdown DC = %v, want 0.5+0i", mean)
	}
}
