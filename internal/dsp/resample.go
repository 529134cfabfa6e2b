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

// ResampleLinear resamples x by the given rate ratio (outputRate/inputRate)
// using linear interpolation. ratio must be positive. Used to model
// sampling-clock skew between nominally identical converters, where the
// ratio is within a few hundred ppm of 1 and linear interpolation error is
// far below the channel noise floor.
func ResampleLinear(x []float64, ratio float64) []float64 {
	if ratio <= 0 || len(x) == 0 {
		return nil
	}
	outLen := int(math.Floor(float64(len(x)-1)*ratio)) + 1
	if outLen < 1 {
		outLen = 1
	}
	out := make([]float64, outLen)
	for i := 0; i < outLen; i++ {
		pos := float64(i) / ratio
		i0 := int(pos)
		if i0 >= len(x)-1 {
			out[i] = x[len(x)-1]
			continue
		}
		f := pos - float64(i0)
		out[i] = x[i0]*(1-f) + x[i0+1]*f
	}
	return out
}

// ResampleSinc resamples x by ratio using a windowed-sinc interpolator with
// the given half-width (taps = 2*halfWidth+1 per output sample). Slower but
// more accurate than ResampleLinear; used for Doppler-shifted waveforms.
func ResampleSinc(x []float64, ratio float64, halfWidth int) []float64 {
	if ratio <= 0 || len(x) == 0 {
		return nil
	}
	if halfWidth < 1 {
		halfWidth = 8
	}
	outLen := int(math.Floor(float64(len(x)-1)*ratio)) + 1
	out := make([]float64, outLen)
	for i := 0; i < outLen; i++ {
		pos := float64(i) / ratio
		i0 := int(math.Floor(pos))
		var acc, wsum float64
		for k := i0 - halfWidth + 1; k <= i0+halfWidth; k++ {
			if k < 0 || k >= len(x) {
				continue
			}
			t := pos - float64(k)
			w := 0.5 + 0.5*math.Cos(math.Pi*t/float64(halfWidth))
			if w < 0 {
				w = 0
			}
			c := Sinc(t) * w
			acc += x[k] * c
			wsum += c
		}
		if wsum != 0 {
			acc /= wsum
		}
		out[i] = acc
	}
	return out
}

// MixDown multiplies x by a complex exponential at -fHz, producing the
// baseband analytic product used by FMCW receivers. Returns a new slice.
func MixDown(x []float64, fHz, fs float64) []complex128 {
	out := make([]complex128, len(x))
	w := -2 * math.Pi * fHz / fs
	for i, v := range x {
		s, c := math.Sincos(w * float64(i))
		out[i] = complex(v*c, v*s)
	}
	return out
}
