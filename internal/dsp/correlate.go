package dsp

import (
	"math"
)

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
