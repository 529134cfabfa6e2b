package dsp

import (
	"math"
	"sync"
)

// Matcher is a precomputed matched filter for one correlation template.
//
// The receiver correlates the same preamble against every stream it ever
// sees, so a Matcher transforms the template once per padded FFT length,
// caches the conjugated spectrum, and folds the template energy into the
// normalization: each correlation costs one forward RFFT of the stream,
// one fused multiply-retangle pass, and one inverse.
//
// Cached spectra live in fold order (see foldSpec): rearranged to line
// up with the fold table's conjugate-pair walk, so the per-call
// frequency-domain work is one flat pass of float64 loops in the
// kernel's permuted domain with no complex128 materialization and no
// natural-order spectrum ever built.
//
// Build one Matcher per template and share it freely: the spectrum cache
// is guarded by a read-write mutex, cached spectra are immutable after
// publication, and the FFT kernel itself only reads shared tables, so
// concurrent Correlate calls from engine workers are safe. For very long
// streams the FFT runs overlap-save in fixed-size blocks, bounding
// scratch at the block length instead of the padded stream length.
//
// Use a Matcher for every template the receiver scans for (preamble
// detection, calibration chirps, baseline templates).
type Matcher struct {
	h      []float64 // private copy of the template
	energy float64   // Σ h² — pre-folded normalization energy

	mu    sync.RWMutex
	specs map[int]*foldSpec // padded length m -> conj(RFFT(h, m)) in fold order
}

// NewMatcher builds a matcher around a copy of template.
func NewMatcher(template []float64) *Matcher {
	h := append([]float64(nil), template...)
	var e float64
	for _, v := range h {
		e += v * v
	}
	return &Matcher{h: h, energy: e, specs: make(map[int]*foldSpec)}
}

// Template returns the matcher's internal template copy. Treat it as
// read-only; it is shared with every spectrum the matcher has cached.
func (mt *Matcher) Template() []float64 { return mt.h }

// TemplateLen returns the template length in samples.
func (mt *Matcher) TemplateLen() int { return len(mt.h) }

// spectrum returns the conjugated template spectrum at padded FFT length
// m (a power of two >= len(h)) in fold order, computing and caching it on
// first use.
func (mt *Matcher) spectrum(m int) *foldSpec {
	mt.mu.RLock()
	s := mt.specs[m]
	mt.mu.RUnlock()
	if s != nil {
		return s
	}
	mt.mu.Lock()
	defer mt.mu.Unlock()
	if s := mt.specs[m]; s != nil {
		return s
	}
	pad := GetF64(m)
	copy(pad, mt.h)
	sre := GetF64(m/2 + 1)
	sim := GetF64(m/2 + 1)
	rfftInto(sre, sim, pad)
	PutF64(pad)
	for i, v := range sim {
		sim[i] = -v // conj(H)
	}
	s = newFoldSpec(sre, sim, m)
	PutF64(sim)
	PutF64(sre)
	mt.specs[m] = s
	return s
}

// NormalizedCrossCorrelatePooled computes the valid-lag cross-correlation
//
//	r[k] = Σ_n x[n+k]·h[n],   k in [0, len(x)-len(h)]
//
// normalized by the (precomputed) template energy and the local window
// energy of x, so the output lies in [-1, 1] regardless of signal scale;
// windows of (near-)zero energy yield 0. The result, len(x)-len(h)+1
// lags or nil when x is shorter than the template, comes from the
// package scratch pool; release it with PutF64.
func (mt *Matcher) NormalizedCrossCorrelatePooled(x []float64) []float64 {
	return mt.correlate(x, true, true)
}

func (mt *Matcher) correlate(x []float64, normalized, pooled bool) []float64 {
	if len(mt.h) == 0 || len(x) == 0 || len(mt.h) > len(x) {
		return nil
	}
	var out []float64
	switch {
	case len(mt.h) < directCorrMin:
		out = xcorrDirect(x, mt.h, pooled)
	default:
		out = mt.corrFFT(x, pooled)
	}
	if normalized {
		normalizeByWindowEnergy(out, x, len(mt.h), mt.energy)
	}
	return out
}

// osBlockFactor sizes the overlap-save FFT block relative to the
// template: NextPow2(osBlockFactor·len(h)) keeps >= ~87% of each block as
// valid output. Streams whose one-shot padded length fits within two
// blocks transform in one shot (fewer total butterflies); beyond that the
// blocked path bounds scratch and wins on cache locality.
const osBlockFactor = 8

func (mt *Matcher) blockLen() int {
	return NextPow2(osBlockFactor * len(mt.h))
}

func (mt *Matcher) corrFFT(x []float64, pooled bool) []float64 {
	oneShot := NextPow2(len(x) + len(mt.h) - 1)
	if block := mt.blockLen(); oneShot > 2*block {
		return mt.corrOverlapSave(x, block, pooled)
	}
	out := allocResult(len(x)-len(mt.h)+1, pooled)
	hm := oneShot / 2
	zre, zim := getF64Raw(hm), getF64Raw(hm)
	rfftPacked(zre, zim, x)
	foldSpecMulTo(zre, zim, zre, zim, mt.spectrum(oneShot), oneShot)
	fftSoA(zre, zim, true)
	interleaveScaled(out, zre, zim, hm)
	PutF64(zim)
	PutF64(zre)
	return out
}

// corrOverlapSave computes the same valid-lag correlation in fixed-size
// blocks: each block transforms blockLen samples of x and keeps the first
// blockLen-len(h)+1 lags, which are free of circular wrap by
// construction. Scratch stays bounded at the block length however long
// the stream is.
func (mt *Matcher) corrOverlapSave(x []float64, blockLen int, pooled bool) []float64 {
	hlen := len(mt.h)
	nOut := len(x) - hlen + 1
	valid := blockLen - hlen + 1
	out := allocResult(nOut, pooled)
	spec := mt.spectrum(blockLen)
	hm := blockLen / 2
	zre, zim := getF64Raw(hm), getF64Raw(hm)
	for p := 0; p < nOut; p += valid {
		end := p + blockLen
		if end > len(x) {
			end = len(x)
		}
		rfftPacked(zre, zim, x[p:end])
		foldSpecMulTo(zre, zim, zre, zim, spec, blockLen)
		fftSoA(zre, zim, true)
		take := valid
		if p+take > nOut {
			take = nOut - p
		}
		interleaveScaled(out[p:p+take], zre, zim, hm)
	}
	PutF64(zim)
	PutF64(zre)
	return out
}

// normalizeByWindowEnergy divides each correlation lag by
// sqrt(E_window · eh): the sliding window energy of x times the
// precomputed template energy, in a single rolling pass — two
// Neumaier-compensated running sums one window apart stand in for a
// stored prefix array, so window energies stay accurate to rounding
// however long the stream is. Windows of (near-)zero energy yield 0.
func normalizeByWindowEnergy(r, x []float64, hlen int, eh float64) {
	if r == nil {
		return
	}
	if eh == 0 {
		for i := range r {
			r[i] = 0
		}
		return
	}
	const eps = 1e-30
	var hiS, hiC, loS, loC float64 // leading/trailing edge sums + compensations
	for _, v := range x[:hlen] {
		hiS, hiC = neumaierAdd(hiS, hiC, v*v)
	}
	for k := range r {
		ex := (hiS + hiC) - (loS + loC)
		den := math.Sqrt(ex * eh)
		if den < eps {
			r[k] = 0
		} else {
			r[k] /= den
		}
		if next := k + hlen; next < len(x) {
			hiS, hiC = neumaierAdd(hiS, hiC, x[next]*x[next])
		}
		loS, loC = neumaierAdd(loS, loC, x[k]*x[k])
	}
}

// neumaierAdd folds y into the compensated running sum (sum, comp):
// Kahan–Babuška–Neumaier summation, which keeps the low-order bits a
// plain running sum sheds — over a 10^7-sample stream the plain sum's
// window energies drift by orders of magnitude more than one ulp.
func neumaierAdd(sum, comp, y float64) (float64, float64) {
	t := sum + y
	if sum >= y {
		comp += (sum - t) + y
	} else {
		comp += (y - t) + sum
	}
	return t, comp
}

// energyPrefix fills prefix (len(x)+1 entries) with the running energy
// sums prefix[i] = Σ_{j<i} x[j]², accumulated with Neumaier compensation
// so entries stay accurate to a final rounding at any stream length —
// the long-stream drift of a plain running sum would otherwise leak into
// every window energy difference downstream. Shared by the bank and
// streaming normalization paths, which reuse one prefix across templates.
func energyPrefix(prefix, x []float64) {
	prefix[0] = 0
	var sum, comp float64
	for i, v := range x {
		sum, comp = neumaierAdd(sum, comp, v*v)
		prefix[i+1] = sum + comp
	}
}

// normalizeWithPrefix is the normalization core on a precomputed energy
// prefix-sum array: prefix[k] must hold the cumulative Σ x² up to (but not
// including) the stream sample aligned with correlation lag r[0]+k. The
// split lets MatcherBank normalize every template off one prefix pass and
// lets the streaming sessions normalize block slices against a rolling
// prefix window.
func normalizeWithPrefix(r, prefix []float64, hlen int, eh float64) {
	if eh == 0 {
		for i := range r {
			r[i] = 0
		}
		return
	}
	const eps = 1e-30
	lo := prefix[:len(r)]
	hi := prefix[hlen:][:len(r)]
	for k := range r {
		ex := hi[k] - lo[k]
		den := math.Sqrt(ex * eh)
		if den < eps {
			r[k] = 0
		} else {
			r[k] /= den
		}
	}
}
