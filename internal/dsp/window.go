package dsp

import "math"

// Window identifies a tapering window shape.
type Window int

// Supported window shapes.
const (
	Rectangular Window = iota
	Hann
	Hamming
	Blackman
)

// String returns the conventional window name.
func (w Window) String() string {
	switch w {
	case Rectangular:
		return "rectangular"
	case Hann:
		return "hann"
	case Hamming:
		return "hamming"
	case Blackman:
		return "blackman"
	default:
		return "unknown"
	}
}

// MakeWindow returns the n window coefficients for shape w (symmetric form).
func MakeWindow(w Window, n int) []float64 {
	if n <= 0 {
		return nil
	}
	out := make([]float64, n)
	if n == 1 {
		out[0] = 1
		return out
	}
	den := float64(n - 1)
	for i := 0; i < n; i++ {
		t := float64(i) / den
		switch w {
		case Rectangular:
			out[i] = 1
		case Hann:
			out[i] = 0.5 - 0.5*math.Cos(2*math.Pi*t)
		case Hamming:
			out[i] = 0.54 - 0.46*math.Cos(2*math.Pi*t)
		case Blackman:
			out[i] = 0.42 - 0.5*math.Cos(2*math.Pi*t) + 0.08*math.Cos(4*math.Pi*t)
		default:
			out[i] = 1
		}
	}
	return out
}

// ApplyWindow multiplies x by the window coefficients in place and
// returns x. len(win) must equal len(x).
func ApplyWindow(x, win []float64) []float64 {
	if len(x) != len(win) {
		panic("dsp: ApplyWindow length mismatch")
	}
	for i := range x {
		x[i] *= win[i]
	}
	return x
}

// Sinc is the normalized sinc function sin(pi x)/(pi x) with Sinc(0)=1.
func Sinc(x float64) float64 {
	if x == 0 {
		return 1
	}
	px := math.Pi * x
	return math.Sin(px) / px
}

// FIRBandpass designs a linear-phase band-pass FIR filter with numTaps taps
// (odd preferred) passing [lowHz, highHz] at sample rate fs, using the
// windowed-sinc method with a Hamming window. Returns the impulse response.
func FIRBandpass(numTaps int, lowHz, highHz, fs float64) []float64 {
	if numTaps <= 0 {
		return nil
	}
	if lowHz < 0 {
		lowHz = 0
	}
	nyq := fs / 2
	if highHz > nyq {
		highHz = nyq
	}
	if highHz <= lowHz {
		return make([]float64, numTaps)
	}
	fl := lowHz / fs
	fh := highHz / fs
	h := make([]float64, numTaps)
	mid := float64(numTaps-1) / 2
	win := MakeWindow(Hamming, numTaps)
	for i := 0; i < numTaps; i++ {
		t := float64(i) - mid
		// Difference of two low-pass prototypes.
		v := 2*fh*Sinc(2*fh*t) - 2*fl*Sinc(2*fl*t)
		h[i] = v * win[i]
	}
	return h
}
