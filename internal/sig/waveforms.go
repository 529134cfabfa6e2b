package sig

import (
	"math"

	"uwpos/internal/dsp"
)

// LinearChirp returns an n-sample linear frequency sweep from f0 to f1 Hz
// at sample rate fs, amplitude 1, with a short Hann taper at both ends to
// limit spectral splatter.
func LinearChirp(f0, f1 float64, n int, fs float64) []float64 {
	if n <= 0 {
		return nil
	}
	out := make([]float64, n)
	k := (f1 - f0) / (float64(n) / fs) // sweep rate Hz/s
	for i := 0; i < n; i++ {
		t := float64(i) / fs
		phase := 2 * math.Pi * (f0*t + 0.5*k*t*t)
		out[i] = math.Sin(phase)
	}
	applyEdgeTaper(out, n/16)
	return out
}

// Tone returns an n-sample sine at freq Hz with the given amplitude.
func Tone(freq float64, n int, fs, amplitude float64) []float64 {
	out := make([]float64, n)
	w := 2 * math.Pi * freq / fs
	for i := range out {
		out[i] = amplitude * math.Sin(w*float64(i))
	}
	return out
}

func applyEdgeTaper(x []float64, ramp int) {
	if ramp <= 0 || 2*ramp > len(x) {
		return
	}
	for i := 0; i < ramp; i++ {
		g := 0.5 - 0.5*math.Cos(math.Pi*float64(i)/float64(ramp))
		x[i] *= g
		x[len(x)-1-i] *= g
	}
}

// MFSK encodes small integers (device IDs) as single-band energy in a
// band-divided MFSK constellation, as in §2.3 of the paper: the 1–5 kHz
// band is split into groupSize bins and ID i lights up the i-th bin.
type MFSK struct {
	BandLowHz  float64
	BandHighHz float64
	GroupSize  int // number of IDs == number of sub-bands
	SampleRate float64
}

// NewMFSK returns an MFSK codec over the standard band for a dive group of
// the given size.
func NewMFSK(groupSize int, fs float64) MFSK {
	return MFSK{BandLowHz: 1000, BandHighHz: 5000, GroupSize: groupSize, SampleRate: fs}
}

// SubBand returns the center frequency of the i-th ID sub-band.
func (m MFSK) SubBand(id int) float64 {
	width := (m.BandHighHz - m.BandLowHz) / float64(m.GroupSize)
	return m.BandLowHz + (float64(id)+0.5)*width
}

// EncodeID returns an n-sample tone burst announcing the given device ID.
// IDs outside [0, GroupSize) panic.
func (m MFSK) EncodeID(id, n int) []float64 {
	if id < 0 || id >= m.GroupSize {
		panic("sig: MFSK id out of range")
	}
	out := Tone(m.SubBand(id), n, m.SampleRate, 1)
	applyEdgeTaper(out, n/16)
	return out
}

// DecodeID runs the maximum-likelihood detector: the Goertzel energy at
// each sub-band center; returns the arg-max ID and the ratio between the
// best and second-best energies (a confidence measure; 1.0 = ambiguous).
func (m MFSK) DecodeID(x []float64) (id int, confidence float64) {
	best, second := -1.0, -1.0
	bestID := 0
	for i := 0; i < m.GroupSize; i++ {
		e := Goertzel(x, m.SubBand(i), m.SampleRate)
		if e > best {
			second = best
			best, bestID = e, i
		} else if e > second {
			second = e
		}
	}
	if second <= 0 {
		return bestID, math.Inf(1)
	}
	return bestID, best / second
}

// Goertzel returns the energy of x at frequency f (Hz) using the Goertzel
// single-bin DFT, the standard tool for FSK demodulation.
func Goertzel(x []float64, f, fs float64) float64 {
	if len(x) == 0 {
		return 0
	}
	w := 2 * math.Pi * f / fs
	coeff := 2 * math.Cos(w)
	var s0, s1, s2 float64
	for _, v := range x {
		s0 = v + coeff*s1 - s2
		s2 = s1
		s1 = s0
	}
	// Power of the resonator state.
	return s1*s1 + s2*s2 - coeff*s1*s2
}

// bandLimitTaps is the FIR length BandLimit uses; odd, so the linear-
// phase group delay (taps-1)/2 is a whole number of samples.
const bandLimitTaps = 255

// BandLimitFIR returns the linear-phase FIR taps BandLimit applies for
// the given band. Exported so the streaming detector can run the
// identical filter incrementally: same taps + same direct-form arithmetic
// makes chunked prefiltering bit-identical to the one-shot BandLimit.
func BandLimitFIR(lowHz, highHz, fs float64) []float64 {
	return dsp.FIRBandpass(bandLimitTaps, lowHz, highHz, fs)
}

// BandLimit filters x to the [lowHz, highHz] band with a linear-phase FIR
// and compensates the group delay, returning a slice of len(x). Used to
// model the limited underwater frequency response of phone speakers.
func BandLimit(x []float64, lowHz, highHz, fs float64) []float64 {
	h := BandLimitFIR(lowHz, highHz, fs)
	// Compensate the (taps-1)/2 group delay: out[i] is the causal filter
	// output at i+d, and the last d samples stay zero.
	d := min((bandLimitTaps-1)/2, len(x))
	out := make([]float64, len(x))
	dsp.FilterFrom(out[:len(x)-d], h, x, d)
	return out
}
