package dsp

import "sync"

// Matcher is one correlation template plus its conjugated spectra,
// cached per block length.
//
// The receiver correlates the same preamble against every stream it ever
// sees, so a Matcher transforms the template once per block length,
// caches the conjugated spectrum, and precomputes the template energy
// the normalization divides by. A Matcher scans nothing itself: a
// MatcherBank sets the block grid, and each of the bank's BankStream
// sessions runs the scan, paying one forward RFFT per block, one fused
// multiply-retangle pass and one inverse per template.
//
// Cached spectra live in fold order (see foldSpec): rearranged to line
// up with the fold table's conjugate-pair walk, so the per-block
// frequency-domain work is one flat pass of float64 loops in the
// kernel's permuted domain with no complex128 materialization and no
// natural-order spectrum ever built.
//
// Build one Matcher per template and share it freely: the spectrum cache
// is guarded by a read-write mutex, cached spectra are immutable after
// publication, and the FFT kernel itself only reads shared tables, so
// concurrent sessions from engine workers are safe.
type Matcher struct {
	h      []float64 // private copy of the template
	energy float64   // Σ h² — pre-folded normalization energy

	mu    sync.RWMutex
	specs map[int]*foldSpec // block length m -> conj(RFFT(h, m)) in fold order
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
