package dsp

import "math"

// Peak is a local maximum in a magnitude profile.
type Peak struct {
	Index int     // sample index of the maximum
	Value float64 // magnitude at the maximum
}

// IsPeak reports whether index i is a strict-or-plateau local maximum of x:
// x[i] >= both neighbours (edges compare against the single neighbour).
// This is the IsPeak predicate of the paper's direct-path search (§2.2).
func IsPeak(i int, x []float64) bool {
	if i < 0 || i >= len(x) {
		return false
	}
	if i > 0 && x[i] < x[i-1] {
		return false
	}
	if i < len(x)-1 && x[i] < x[i+1] {
		return false
	}
	return true
}

// IsPeakWide reports whether x[i] is the maximum over the ±radius
// neighbourhood (ties allowed). Radius 1 matches IsPeak; larger radii
// reject the one-sample noise ripples that ride on the slopes of
// band-limited correlation lobes.
func IsPeakWide(i int, x []float64, radius int) bool {
	if i < 0 || i >= len(x) {
		return false
	}
	lo := i - radius
	if lo < 0 {
		lo = 0
	}
	hi := i + radius
	if hi > len(x)-1 {
		hi = len(x) - 1
	}
	for k := lo; k <= hi; k++ {
		if x[k] > x[i] {
			return false
		}
	}
	return true
}

// FindPeaks returns all local maxima with value >= threshold, sorted by
// index. Plateaus report their first index.
func FindPeaks(x []float64, threshold float64) []Peak {
	var peaks []Peak
	for i := 0; i < len(x); i++ {
		if x[i] < threshold {
			continue
		}
		if !IsPeak(i, x) {
			continue
		}
		if i > 0 && x[i] == x[i-1] {
			continue // interior of a plateau
		}
		peaks = append(peaks, Peak{Index: i, Value: x[i]})
	}
	return peaks
}

// MaxAbs returns the index and value of the maximum of |x|.
// Returns (-1, 0) for empty input.
func MaxAbs(x []float64) (int, float64) {
	idx, best := -1, 0.0
	for i, v := range x {
		if a := math.Abs(v); a > best {
			best, idx = a, i
		}
	}
	return idx, best
}

// Max returns the index and value of the maximum of x. (-1, -Inf) if empty.
func Max(x []float64) (int, float64) {
	idx, best := -1, math.Inf(-1)
	for i, v := range x {
		if v > best {
			best, idx = v, i
		}
	}
	return idx, best
}

// NoiseFloor estimates the noise level of a channel profile as the mean
// power of the last tailLen taps, following §2.2 of the paper (the last 100
// channel taps are assumed to be past the delay spread). If tailLen exceeds
// the profile it uses the whole profile.
func NoiseFloor(profile []float64, tailLen int) float64 {
	if len(profile) == 0 {
		return 0
	}
	if tailLen <= 0 || tailLen > len(profile) {
		tailLen = len(profile)
	}
	var s float64
	for _, v := range profile[len(profile)-tailLen:] {
		s += v * v
	}
	mean := s / float64(tailLen)
	return math.Sqrt(mean)
}

// Normalize scales x in place so its maximum absolute value is 1 and
// returns x. A zero vector is returned unchanged.
func Normalize(x []float64) []float64 {
	_, m := MaxAbs(x)
	if m == 0 {
		return x
	}
	inv := 1 / m
	for i := range x {
		x[i] *= inv
	}
	return x
}

// AbsComplex returns the magnitudes of a complex vector.
func AbsComplex(x []complex128) []float64 {
	out := make([]float64, len(x))
	for i, v := range x {
		out[i] = math.Hypot(real(v), imag(v))
	}
	return out
}

// DB converts a linear power ratio to decibels (10log10).
// Non-positive ratios map to -Inf.
func DB(ratio float64) float64 {
	if ratio <= 0 {
		return math.Inf(-1)
	}
	return 10 * math.Log10(ratio)
}

// WindowPowerDB returns the power of x[start:start+width] in dB relative to
// the power of x[prevStart:prevStart+width]; used by the TH_SD window-based
// detector baseline (Peng et al., BeepBeep).
func WindowPowerDB(x []float64, prevStart, start, width int) float64 {
	p1 := segPower(x, prevStart, width)
	p2 := segPower(x, start, width)
	if p1 <= 0 {
		if p2 <= 0 {
			return 0
		}
		return math.Inf(1)
	}
	return DB(p2 / p1)
}

func segPower(x []float64, start, width int) float64 {
	if start < 0 || width <= 0 || start >= len(x) {
		return 0
	}
	end := start + width
	if end > len(x) {
		end = len(x)
	}
	var s float64
	for _, v := range x[start:end] {
		s += v * v
	}
	return s / float64(end-start)
}
