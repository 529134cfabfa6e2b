package dsp

import (
	"math"
	"testing"
)

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
