package dsp

import (
	"math"
)

// directCorrMin is the direct/FFT crossover: templates shorter than this
// correlate faster with the O(len(x)·len(h)) sliding dot product than
// with padded transforms; Matcher picks its path by it.
const directCorrMin = 64

// allocResult picks the result allocation strategy. Pooled buffers come
// zeroed from GetF64 and are fully overwritten by every correlation path.
func allocResult(n int, pooled bool) []float64 {
	if pooled {
		return GetF64(n)
	}
	return make([]float64, n)
}

func xcorrDirect(x, h []float64, pooled bool) []float64 {
	n := len(x) - len(h) + 1
	out := allocResult(n, pooled)
	for k := 0; k < n; k++ {
		var s float64
		for n2, hv := range h {
			s += x[k+n2] * hv
		}
		out[k] = s
	}
	return out
}

// SegmentCorrelation returns the normalized correlation coefficient between
// two equal-length segments (Pearson-style without mean removal, matching
// matched-filter practice). Returns 0 when either segment has no energy.
func SegmentCorrelation(a, b []float64) float64 {
	if len(a) != len(b) || len(a) == 0 {
		return 0
	}
	var sab, saa, sbb float64
	for i := range a {
		sab += a[i] * b[i]
		saa += a[i] * a[i]
		sbb += b[i] * b[i]
	}
	if saa == 0 || sbb == 0 {
		return 0
	}
	return sab / math.Sqrt(saa*sbb)
}
