package sig

import (
	"fmt"
	"math"
	"sync"

	"uwpos/internal/dsp"
)

// Params fixes the preamble numerology. The defaults mirror §2.2.1 of the
// paper: 1920-sample OFDM symbols at 44.1 kHz filled with a Zadoff–Chu
// sequence over the 1–5 kHz band, 540-sample cyclic prefixes, and four
// symbols signed by the PN code [1, 1, −1, 1].
type Params struct {
	SampleRate float64   // fs, Hz
	SymbolLen  int       // OFDM symbol length L, samples
	CPLen      int       // cyclic prefix length, samples
	NumSymbols int       // symbols per preamble
	PN         []float64 // per-symbol signs, len == NumSymbols
	BandLowHz  float64   // lower edge of the occupied band
	BandHighHz float64   // upper edge of the occupied band
	ZCRoot     int       // Zadoff–Chu root u
}

// DefaultParams returns the paper's numerology.
func DefaultParams() Params {
	return Params{
		SampleRate: 44100,
		SymbolLen:  1920,
		CPLen:      540,
		NumSymbols: 4,
		PN:         []float64{1, 1, -1, 1},
		BandLowHz:  1000,
		BandHighHz: 5000,
		ZCRoot:     25,
	}
}

// SNRProbeParams returns the 8-symbol variant the paper's appendix uses
// for per-subcarrier SNR measurement (Fig. 22): more symbols average the
// per-bin channel estimates harder, sharpening the SNR statistic.
func SNRProbeParams() Params {
	p := DefaultParams()
	p.NumSymbols = 8
	p.PN = []float64{1, 1, -1, 1, 1, 1, -1, 1}
	return p
}

// Validate checks internal consistency.
func (p Params) Validate() error {
	switch {
	case p.SampleRate <= 0:
		return fmt.Errorf("sig: sample rate %g must be positive", p.SampleRate)
	case p.SymbolLen <= 0:
		return fmt.Errorf("sig: symbol length %d must be positive", p.SymbolLen)
	case p.CPLen < 0:
		return fmt.Errorf("sig: cyclic prefix %d must be non-negative", p.CPLen)
	case p.NumSymbols <= 0:
		return fmt.Errorf("sig: need at least one symbol")
	case len(p.PN) != p.NumSymbols:
		return fmt.Errorf("sig: PN length %d != symbol count %d", len(p.PN), p.NumSymbols)
	case p.BandLowHz <= 0 || p.BandHighHz <= p.BandLowHz:
		return fmt.Errorf("sig: invalid band [%g, %g]", p.BandLowHz, p.BandHighHz)
	case p.BandHighHz > p.SampleRate/2:
		return fmt.Errorf("sig: band edge %g beyond Nyquist %g", p.BandHighHz, p.SampleRate/2)
	}
	lo, hi := p.BinRange()
	if hi <= lo {
		return fmt.Errorf("sig: empty bin range [%d, %d)", lo, hi)
	}
	return nil
}

// BinRange returns the half-open range [lo, hi) of occupied FFT bins for
// the configured band at the symbol length.
func (p Params) BinRange() (lo, hi int) {
	lo = int(math.Ceil(p.BandLowHz * float64(p.SymbolLen) / p.SampleRate))
	hi = int(math.Floor(p.BandHighHz*float64(p.SymbolLen)/p.SampleRate)) + 1
	if max := p.SymbolLen / 2; hi > max {
		hi = max
	}
	return lo, hi
}

// PreambleLen returns the total preamble length in samples.
func (p Params) PreambleLen() int { return p.NumSymbols * (p.SymbolLen + p.CPLen) }

// SymbolSpectrum returns X(k): the length-SymbolLen frequency-domain base
// symbol before PN signing. Occupied positive-frequency bins carry the ZC
// sequence; conjugate symmetry makes the time signal real.
func (p Params) SymbolSpectrum() []complex128 {
	lo, hi := p.BinRange()
	nbins := hi - lo
	// Largest odd length <= nbins keeps the classic ZC form; remaining
	// bins repeat cyclically.
	zcLen := nbins
	if zcLen%2 == 0 {
		zcLen--
	}
	if zcLen < 3 {
		zcLen = 3
	}
	root := p.ZCRoot % zcLen
	if root <= 0 {
		root = 1
	}
	for gcd(root, zcLen) != 1 {
		root++
		if root >= zcLen {
			root = 1
		}
	}
	zc := ZadoffChu(root, zcLen)
	spec := make([]complex128, p.SymbolLen)
	for m := 0; m < nbins; m++ {
		v := zc[m%zcLen]
		spec[lo+m] = v
		spec[p.SymbolLen-(lo+m)] = complexConj(v)
	}
	return spec
}

func complexConj(v complex128) complex128 { return complex(real(v), -imag(v)) }

// BaseSymbol returns the real time-domain OFDM symbol (length SymbolLen),
// peak-normalized to 1.
func (p Params) BaseSymbol() []float64 {
	spec := p.SymbolSpectrum()
	plan := dsp.NewPlan(p.SymbolLen)
	plan.Inverse(spec)
	out := make([]float64, p.SymbolLen)
	for i, v := range spec {
		out[i] = real(v)
	}
	dsp.Normalize(out)
	return out
}

// Preamble returns the full transmitted preamble:
// [CP|S·PN₀][CP|S·PN₁]…, peak-normalized to 1.
func (p Params) Preamble() []float64 {
	sym := p.BaseSymbol()
	out := make([]float64, 0, p.PreambleLen())
	for s := 0; s < p.NumSymbols; s++ {
		sign := p.PN[s]
		// Cyclic prefix: last CPLen samples of the signed symbol.
		for _, v := range sym[len(sym)-p.CPLen:] {
			out = append(out, sign*v)
		}
		for _, v := range sym {
			out = append(out, sign*v)
		}
	}
	return out
}

// Key returns a comparable identity for the numerology, suitable as a
// cache key: two Params with equal Key produce identical waveforms.
func (p Params) Key() string {
	return fmt.Sprintf("%g|%d|%d|%d|%v|%g|%g|%d",
		p.SampleRate, p.SymbolLen, p.CPLen, p.NumSymbols, p.PN,
		p.BandLowHz, p.BandHighHz, p.ZCRoot)
}

// Package-level waveform caches. Preambles and base-symbol spectra are
// pure functions of Params, and the receiver pipeline rebuilds its state
// per trial (each trial constructs fresh detectors/estimators), so
// without a cache every trial would re-synthesize the identical
// waveform. Values are stored once and handed out shared.
var (
	preambleCache sync.Map // Params.Key() -> []float64, read-only
	spectrumCache sync.Map // Params.Key() -> []complex128, read-only
	matcherCache  sync.Map // kind + "|" + Params.Key() -> *dsp.Matcher
)

// SharedPreamble returns the preamble waveform for p from a package-level
// cache. The returned slice is shared across callers and MUST be treated
// as read-only; use Preamble for a private copy.
func SharedPreamble(p Params) []float64 {
	k := p.Key()
	if v, ok := preambleCache.Load(k); ok {
		return v.([]float64)
	}
	v, _ := preambleCache.LoadOrStore(k, p.Preamble())
	return v.([]float64)
}

// SharedSymbolSpectrum returns X(k) for p from a package-level cache.
// The returned slice is shared across callers and MUST be treated as
// read-only; use SymbolSpectrum for a private copy.
func SharedSymbolSpectrum(p Params) []complex128 {
	k := p.Key()
	if v, ok := spectrumCache.Load(k); ok {
		return v.([]complex128)
	}
	v, _ := spectrumCache.LoadOrStore(k, p.SymbolSpectrum())
	return v.([]complex128)
}

// SharedMatcher returns a process-wide dsp.Matcher for the waveform that
// build derives from p, cached under kind (e.g. "preamble",
// "calibration") so distinct waveforms of one numerology get distinct
// matchers. All trials and engine workers share the returned matcher;
// dsp.NewMatcher copies the template, so build may return a shared slice.
func SharedMatcher(kind string, p Params, build func(Params) []float64) *dsp.Matcher {
	k := kind + "|" + p.Key()
	if v, ok := matcherCache.Load(k); ok {
		return v.(*dsp.Matcher)
	}
	v, _ := matcherCache.LoadOrStore(k, dsp.NewMatcher(build(p)))
	return v.(*dsp.Matcher)
}

// SymbolAt returns the sample range [start, end) of the s-th OFDM symbol
// body (cyclic prefix excluded) within a preamble that begins at sample 0.
func (p Params) SymbolAt(s int) (start, end int) {
	if s < 0 || s >= p.NumSymbols {
		panic(fmt.Sprintf("sig: symbol index %d out of range", s))
	}
	start = s*(p.SymbolLen+p.CPLen) + p.CPLen
	return start, start + p.SymbolLen
}

// CalibrationSignal returns the short wide-band chirp each device plays
// through its own speaker at startup to measure the speaker→microphone
// buffer offset (paper appendix, Fig. 21). Length n samples.
func (p Params) CalibrationSignal(n int) []float64 {
	if n <= 0 {
		n = 2048
	}
	return LinearChirp(p.BandLowHz, p.BandHighHz, n, p.SampleRate)
}
