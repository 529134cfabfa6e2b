package dsp

import (
	"math"
)

// SegmentCorrelation returns the normalized correlation coefficient between
// two equal-length segments (Pearson-style without mean removal, matching
// matched-filter practice): Dot(a, b)/sqrt(Dot(a, a)·Dot(b, b)). Returns 0
// when either segment has no energy.
func SegmentCorrelation(a, b []float64) float64 {
	if len(a) != len(b) || len(a) == 0 {
		return 0
	}
	saa, sbb := Dot(a, a), Dot(b, b)
	if saa == 0 || sbb == 0 {
		return 0
	}
	return Dot(a, b) / math.Sqrt(saa*sbb)
}

// Dot returns Σ a[i]·b[i], summed with i ascending from +0: one rounded
// multiply and one rounded add per term (the float64 conversion keeps Go
// from fusing them on arm64). len(b) must be at least len(a).
func Dot(a, b []float64) float64 {
	b = b[:len(a)]
	var s float64
	for i, v := range a {
		s += float64(v * b[i])
	}
	return s
}
