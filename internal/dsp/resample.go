package dsp

import "math"

// FractionalDelayTaps fills h with a len(h)-tap windowed-sinc
// fractional-delay kernel. The kernel is centered so that its group delay
// is (len(h)-1)/2 + frac samples: it realizes only the fractional
// remainder frac (in [0, 1)) plus the inherent half-length delay, and the
// caller applies the whole-sample shift separately. Filling a caller's
// buffer, usually a fixed-size array on its stack, keeps per-tap kernel
// synthesis allocation-free. An empty h is left as is.
func FractionalDelayTaps(h []float64, frac float64) {
	numTaps := len(h)
	if numTaps == 0 {
		return
	}
	center := float64(numTaps-1)/2 + frac
	var sum float64
	for i := 0; i < numTaps; i++ {
		t := float64(i) - center
		// Hann-windowed sinc.
		w := 0.5 + 0.5*math.Cos(math.Pi*t/(float64(numTaps)/2))
		if w < 0 {
			w = 0
		}
		h[i] = Sinc(t) * w
		sum += h[i]
	}
	// Normalize DC gain to 1 so amplitude is preserved.
	if sum != 0 {
		for i := range h {
			h[i] /= sum
		}
	}
}
