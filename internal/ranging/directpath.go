package ranging

import (
	"math"

	"uwpos/internal/dsp"
)

// DirectPathConfig tunes the joint dual-microphone direct-path search.
type DirectPathConfig struct {
	// MaxMicOffset is the physical constraint |n−m| ≤ d·fs/c in samples.
	MaxMicOffset int
}

const (
	// lambda is the conservative margin above the noise floor (paper: 0.2
	// on profiles normalized to peak 1).
	lambda = 0.2
	// noiseTailTaps is how many trailing taps estimate the noise floor
	// (paper: 100).
	noiseTailTaps = 100
)

func (c *DirectPathConfig) defaults() {
	if c.MaxMicOffset == 0 {
		c.MaxMicOffset = 5 // ceil(0.16 m · 44100 / 1500) ≈ 4.7
	}
}

// DirectPathResult is the outcome of the joint search.
type DirectPathResult struct {
	TauTaps float64 // direct-path delay (n+m)/2 in profile taps
	N, M    int     // per-mic direct-path tap indices (mic 1, mic 2)
	OK      bool    // false when no pair satisfied the constraints
}

// JointDirectPath solves the constrained minimization of §2.2 on two
// channel profiles (both normalized to peak 1):
//
//	min (n+m)/2  s.t.  h₁(n) > w₁+λ,  h₂(m) > w₂+λ,
//	                   IsPeak(n,h₁) ∧ IsPeak(m,h₂),  |n−m| ≤ maxOffset
//
// where w₁, w₂ are per-profile noise floors from the trailing taps. The
// earliest *mutually consistent* peaks win, which rejects spurious early
// bumps that appear on only one microphone (Fig. 7's "wrong peak"). Both
// profiles are searched over the first half of h₁.
func JointDirectPath(h1, h2 []float64, cfg DirectPathConfig) DirectPathResult {
	if len(h1) == 0 || len(h2) == 0 {
		return DirectPathResult{}
	}
	cfg.defaults()
	window := len(h1) / 2
	w1 := dsp.NoiseFloor(h1, noiseTailTaps)
	w2 := dsp.NoiseFloor(h2, noiseTailTaps)
	t1 := w1 + lambda
	t2 := w2 + lambda
	peaks1 := earlyPeaks(h1, t1, window)
	peaks2 := earlyPeaks(h2, t2, window)
	best := DirectPathResult{TauTaps: math.Inf(1)}
	for _, n := range peaks1 {
		for _, m := range peaks2 {
			if abs(n-m) > cfg.MaxMicOffset {
				continue
			}
			tau := float64(n+m) / 2
			if tau < best.TauTaps {
				best = DirectPathResult{TauTaps: tau, N: n, M: m, OK: true}
			}
		}
	}
	if !best.OK {
		return DirectPathResult{}
	}
	return best
}

// SingleMicDirectPath is the single-microphone ablation (Fig. 11b): the
// earliest peak above the noise floor plus lambda, in the first half of
// the profile.
func SingleMicDirectPath(h []float64) DirectPathResult {
	if len(h) == 0 {
		return DirectPathResult{}
	}
	w := dsp.NoiseFloor(h, noiseTailTaps)
	peaks := earlyPeaks(h, w+lambda, len(h)/2)
	if len(peaks) == 0 {
		return DirectPathResult{}
	}
	return DirectPathResult{TauTaps: float64(peaks[0]), N: peaks[0], M: peaks[0], OK: true}
}

// earlyPeaks lists peak indices above threshold within the window, in
// ascending index order. A ±3-tap dominance test rejects the single-sample
// noise ripples that ride on the rising slope of band-limited lobes and
// would otherwise bias the "earliest peak" a dozen taps early.
func earlyPeaks(h []float64, threshold float64, window int) []int {
	if window > len(h) {
		window = len(h)
	}
	var out []int
	for i := 0; i < window; i++ {
		if h[i] > threshold && dsp.IsPeakWide(i, h, 3) {
			if i > 0 && h[i] == h[i-1] {
				continue // plateau interior
			}
			out = append(out, i)
		}
	}
	return out
}

// MicOffsetSign returns sign(m−n): which microphone heard the direct path
// first. This single bit per remote device feeds the flipping-
// disambiguation vote (§2.1.4). Result is +1 when mic 1 hears it first
// (n < m), −1 when mic 2 does, 0 for ties.
func MicOffsetSign(r DirectPathResult) int {
	switch {
	case !r.OK:
		return 0
	case r.M > r.N:
		return 1
	case r.M < r.N:
		return -1
	default:
		return 0
	}
}
