package ranging

import "uwpos/internal/dsp"

// peakFraction is BeepBeep's "specially-designed peak detection": the
// earliest correlation peak whose height is at least this fraction of
// the global max wins.
const peakFraction = 0.8

// newSingleBank builds the one-template bank a baseline scans with, or
// nil for an empty template: there is nothing to correlate, and
// ArrivalFromCorr reports ok=false for the empty correlation.
func newSingleBank(template []float64) *dsp.MatcherBank {
	if len(template) == 0 {
		return nil
	}
	return dsp.NewMatcherBank(dsp.NewMatcher(template))
}

// BeepBeep is the auto-correlation chirp ranging baseline (Peng et al.,
// SenSys'07), adapted as in §3.1: a linear chirp template, window-power
// signal detection and correlation peak picking with a peak-selection rule
// that prefers the earliest peak within a fraction of the global maximum.
//
// The receiver scans its stream with Bank through an ingest.Pipeline,
// like every other correlation in the system, and hands the collected
// correlation to ArrivalFromCorr.
type BeepBeep struct {
	bank *dsp.MatcherBank
}

// NewBeepBeep builds the baseline around a chirp template.
func NewBeepBeep(template []float64) *BeepBeep {
	return &BeepBeep{bank: newSingleBank(template)}
}

// Bank returns the single-template matcher bank built at construction
// (nil when the template is empty) — the scan target whose per-lag
// output feeds ArrivalFromCorr.
func (b *BeepBeep) Bank() *dsp.MatcherBank { return b.bank }

// ArrivalFromCorr applies BeepBeep's peak-selection rule to the
// normalized correlation of the template against the stream and returns
// the chirp arrival index, or ok=false.
func (b *BeepBeep) ArrivalFromCorr(corr []float64) (idx float64, ok bool) {
	if len(corr) == 0 {
		return 0, false
	}
	_, max := dsp.Max(corr)
	if max <= 0 {
		return 0, false
	}
	peaks := dsp.FindPeaks(corr, max*peakFraction)
	if len(peaks) == 0 {
		return 0, false
	}
	return float64(peaks[0].Index), true
}

// WindowPowerDetector is the TH_SD signal-presence detector from BeepBeep
// ([75] in the paper): declare a signal when the power of a window jumps by
// at least ThresholdDB over the preceding window.
type WindowPowerDetector struct {
	WindowLen   int     // comparison window length in samples
	ThresholdDB float64 // TH_SD
}

// Detect returns indices where the power ratio between adjacent windows
// first exceeds the threshold; a simple hysteresis skips the remainder of a
// detected burst.
func (w WindowPowerDetector) Detect(stream []float64) []int {
	if w.WindowLen <= 0 || len(stream) < 2*w.WindowLen {
		return nil
	}
	var out []int
	step := w.WindowLen
	i := step
	for i+step <= len(stream) {
		db := dsp.WindowPowerDB(stream, i-step, i, step)
		if db >= w.ThresholdDB {
			out = append(out, i)
			i += 4 * step // hysteresis: skip the burst body
			continue
		}
		i += step / 2
	}
	return out
}

// CAT is the FMCW ranging baseline (Mao et al., MobiCom'16): the receiver
// mixes the incoming signal with the transmitted sweep; the beat-frequency
// peak maps linearly to delay. Like BeepBeep it scans with Bank and reads
// its arrival off the collected correlation with ArrivalFromCorr.
type CAT struct {
	sweep  []float64
	fs     float64 // sample rate, Hz
	bandHz float64 // swept bandwidth B
	bank   *dsp.MatcherBank
}

// NewCAT builds the baseline for a sweep covering bandHz of spectrum.
// The sweep is read again at every ArrivalFromCorr; do not modify it.
func NewCAT(sweep []float64, fs, bandHz float64) *CAT {
	return &CAT{sweep: sweep, fs: fs, bandHz: bandHz, bank: newSingleBank(sweep)}
}

// Bank returns the single-template matcher bank built at construction
// (nil when the sweep is empty) — the scan target whose per-lag output
// feeds ArrivalFromCorr.
func (c *CAT) Bank() *dsp.MatcherBank { return c.bank }

// ArrivalFromCorr estimates the sweep arrival index from the normalized
// correlation of the sweep against stream. The correlation peak
// coarse-aligns (CAT assumes rough sync from its tracking loop); the
// receiver then mixes rx·tx over the overlap and reads the residual delay
// off the beat spectrum: delay = f_beat · T / B.
func (c *CAT) ArrivalFromCorr(corr, stream []float64) (idx float64, ok bool) {
	if len(corr) == 0 {
		return 0, false
	}
	coarse, peak := dsp.Max(corr)
	if peak <= 0 {
		return 0, false
	}
	// Back off so the true arrival lies after the mix window start; the
	// beat spectrum then reports the residual delay r ∈ [0, backoff*2).
	const backoff = 64
	start := coarse - backoff
	if start < 0 {
		start = 0
	}
	n := len(c.sweep)
	if start+n > len(stream) {
		n = len(stream) - start
		if n < 256 {
			return 0, false
		}
	}
	// Mix: product of rx and tx. A delay d makes the product a tone at
	// f_beat = k·d/fs (k = B/T sweep rate in Hz/s).
	prod := make([]float64, n)
	for i := 0; i < n; i++ {
		prod[i] = stream[start+i] * c.sweep[i]
	}
	// Window to tame leakage, then a real FFT of the padded mix.
	win := dsp.MakeWindow(dsp.Hann, n)
	dsp.ApplyWindow(prod, win)
	m := dsp.NextPow2(4 * n) // zero-pad for finer beat resolution
	pad := dsp.GetF64(m)
	copy(pad, prod)
	spec := dsp.GetC128(m/2 + 1)
	dsp.RFFT(spec, pad)
	mag := dsp.AbsComplex(spec[:m/2])
	dsp.PutC128(spec)
	dsp.PutF64(pad)
	// The beat for residual delays of ±backoff samples stays below
	// k·backoff·2: restrict the search to suppress audio-band leakage.
	sweepDur := float64(len(c.sweep)) / c.fs
	k := c.bandHz / sweepDur // Hz per second of delay
	maxBeat := k * (2.5 * backoff / c.fs)
	maxBin := int(maxBeat / (c.fs / float64(m)))
	if maxBin < 4 {
		maxBin = 4
	}
	if maxBin > len(mag) {
		maxBin = len(mag)
	}
	bin, _ := dsp.Max(mag[:maxBin])
	if bin < 0 {
		return 0, false
	}
	// Parabolic refinement of the beat bin.
	fb := float64(bin)
	if bin > 0 && bin < len(mag)-1 {
		den := mag[bin-1] - 2*mag[bin] + mag[bin+1]
		if den != 0 {
			fb += -0.5 * (mag[bin+1] - mag[bin-1]) / den
		}
	}
	beatHz := fb * c.fs / float64(m)
	delaySamples := beatHz / k * c.fs
	return float64(start) + delaySamples, true
}
