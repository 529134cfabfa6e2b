package dsp

import (
	"math"
	"math/bits"
)

// directCorrMin is the direct/FFT crossover: templates shorter than this
// correlate faster with the O(len(x)·len(h)) sliding dot product than
// with padded transforms. Shared by CrossCorrelate and Matcher so both
// pick identical paths for identical shapes.
const directCorrMin = 64

// CrossCorrelate computes the full linear cross-correlation
//
//	r[k] = sum_n x[n+k] * h[n],   k in [0, len(x)-len(h)]
//
// i.e. the sliding inner product of the template h against x ("valid"
// correlation lags only). It picks the FFT path when it pays off.
// The result has length len(x)-len(h)+1; it returns nil when len(h) > len(x)
// or either input is empty.
//
// Callers that correlate the same h against many streams should build a
// Matcher instead: it caches the template spectrum across calls.
func CrossCorrelate(x, h []float64) []float64 {
	return crossCorrelate(x, h, false)
}

// CrossCorrelatePooled is CrossCorrelate with the result drawn from the
// package scratch pool: callers that only scan the correlation (peak
// picking) and then discard it release the buffer with PutF64 instead of
// leaving a stream-sized slice to the GC every call.
func CrossCorrelatePooled(x, h []float64) []float64 {
	return crossCorrelate(x, h, true)
}

func crossCorrelate(x, h []float64, pooled bool) []float64 {
	if len(h) == 0 || len(x) == 0 || len(h) > len(x) {
		return nil
	}
	if len(h) < directCorrMin {
		return xcorrDirect(x, h, pooled)
	}
	return xcorrFFT(x, h, pooled)
}

// allocResult picks the result allocation strategy. Pooled buffers come
// zeroed from GetF64 and are fully overwritten by every correlation path.
func allocResult(n int, pooled bool) []float64 {
	if pooled {
		return GetF64(n)
	}
	return make([]float64, n)
}

func xcorrDirect(x, h []float64, pooled bool) []float64 {
	n := len(x) - len(h) + 1
	out := allocResult(n, pooled)
	for k := 0; k < n; k++ {
		var s float64
		for n2, hv := range h {
			s += x[k+n2] * hv
		}
		out[k] = s
	}
	return out
}

// xcorrFFT correlates via two half-cost packed forward transforms
// (rfftPacked — no padded staging buffers), one fused two-spectrum fold
// in the permuted domain (foldTwo, which conjugates the template side in
// flight), and one inverse half-length transform interleaved straight
// into the valid lags. Long streams run overlap-save at a cost-model
// chosen block size instead of one padded transform.
func xcorrFFT(x, h []float64, pooled bool) []float64 {
	m := NextPow2(len(x) + len(h) - 1)
	if b := osOneShotBlock(len(x), len(h), m); b < m {
		return xcorrFFTBlocked(x, h, b, pooled)
	}
	hm := m / 2
	zxre, zxim := getF64Raw(hm), getF64Raw(hm)
	zhre, zhim := getF64Raw(hm), getF64Raw(hm)
	rfftPacked(zxre, zxim, x)
	rfftPacked(zhre, zhim, h)
	foldTwo(zxre, zxim, zhre, zhim, m, true)
	PutF64(zhim)
	PutF64(zhre)
	fftSoA(zxre, zxim, true)
	out := allocResult(len(x)-len(h)+1, pooled)
	interleaveScaled(out, zxre, zxim, hm)
	PutF64(zxim)
	PutF64(zxre)
	return out
}

// osOneShotBlock picks the FFT length for a one-shot correlation of an
// nh-sample template against nx samples: the padded one-shot length m,
// or a smaller overlap-save block when the butterfly count says blocking
// is cheaper. Unlike Matcher's fixed osBlockFactor sizing — tuned for a
// cached template spectrum amortized over many calls — a one-shot call
// pays the template's forward transform every time, so smaller blocks
// win much earlier; the n·log n model also ignores the locality bonus of
// a block that fits in cache, making it conservative.
func osOneShotBlock(nx, nh, m int) int {
	nOut := nx - nh + 1
	best := m
	bestCost := 3 * transformCost(m)
	for b := m / 2; b >= nh && b >= 2; b /= 2 {
		blocks := (nOut + (b - nh)) / (b - nh + 1) // ceil(nOut / valid-per-block)
		cost := float64(1+2*blocks) * transformCost(b)
		if cost < bestCost {
			best, bestCost = b, cost
		}
	}
	return best
}

// transformCost models one packed half-length transform of padded real
// size b in butterfly units.
func transformCost(b int) float64 {
	hm := b / 2
	return float64(hm) * float64(bits.Len(uint(hm)))
}

// xcorrFFTBlocked is xcorrFFT's overlap-save path: the template spectrum
// is computed once at the block size, then each block of x pays one
// packed forward transform, the fused fold and one inverse, with only
// the wrap-free lags interleaved out.
func xcorrFFTBlocked(x, h []float64, block int, pooled bool) []float64 {
	hm := block / 2
	zhre, zhim := getF64Raw(hm), getF64Raw(hm)
	rfftPacked(zhre, zhim, h)
	nOut := len(x) - len(h) + 1
	valid := block - len(h) + 1
	out := allocResult(nOut, pooled)
	zre, zim := getF64Raw(hm), getF64Raw(hm)
	for p := 0; p < nOut; p += valid {
		end := p + block
		if end > len(x) {
			end = len(x)
		}
		rfftPacked(zre, zim, x[p:end])
		foldTwo(zre, zim, zhre, zhim, block, true)
		fftSoA(zre, zim, true)
		take := valid
		if p+take > nOut {
			take = nOut - p
		}
		interleaveScaled(out[p:p+take], zre, zim, hm)
	}
	PutF64(zim)
	PutF64(zre)
	PutF64(zhim)
	PutF64(zhre)
	return out
}

// NormalizedCrossCorrelate computes cross-correlation normalized by the
// template energy and the local window energy of x, so the output lies in
// [-1, 1] regardless of incoming signal scale. Windows of (near-)zero energy
// yield 0. Length is len(x)-len(h)+1.
func NormalizedCrossCorrelate(x, h []float64) []float64 {
	return normalizedCrossCorrelate(x, h, false)
}

// NormalizedCrossCorrelatePooled is NormalizedCrossCorrelate with the
// result drawn from the package scratch pool; release with PutF64.
func NormalizedCrossCorrelatePooled(x, h []float64) []float64 {
	return normalizedCrossCorrelate(x, h, true)
}

func normalizedCrossCorrelate(x, h []float64, pooled bool) []float64 {
	r := crossCorrelate(x, h, pooled)
	if r == nil {
		return nil
	}
	var eh float64
	for _, v := range h {
		eh += v * v
	}
	normalizeByWindowEnergy(r, x, len(h), eh)
	return r
}

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

// ComplexConvolve computes the circular convolution of two equal-length
// complex vectors using the FFT. Both inputs are left unmodified.
// NewPlan draws on the package Bluestein cache, so repeated calls at one
// length skip the chirp setup entirely.
func ComplexConvolve(a, b []complex128) []complex128 {
	if len(a) != len(b) {
		panic("dsp: ComplexConvolve length mismatch")
	}
	n := len(a)
	if n == 0 {
		return nil
	}
	p := NewPlan(n)
	fa := append([]complex128(nil), a...)
	fb := GetC128(n)
	defer PutC128(fb)
	copy(fb, b)
	p.Forward(fa)
	p.Forward(fb)
	for i := range fa {
		fa[i] *= fb[i]
	}
	p.Inverse(fa)
	return fa
}

// Convolve computes the full linear convolution of x and k
// (length len(x)+len(k)-1) via half-cost packed real transforms and the
// same fused two-spectrum fold the correlation path uses, without the
// conjugation.
func Convolve(x, k []float64) []float64 {
	if len(x) == 0 || len(k) == 0 {
		return nil
	}
	out := make([]float64, len(x)+len(k)-1)
	if len(out) == 1 {
		out[0] = x[0] * k[0]
		return out
	}
	m := NextPow2(len(out))
	hm := m / 2
	zxre, zxim := getF64Raw(hm), getF64Raw(hm)
	zkre, zkim := getF64Raw(hm), getF64Raw(hm)
	rfftPacked(zxre, zxim, x)
	rfftPacked(zkre, zkim, k)
	foldTwo(zxre, zxim, zkre, zkim, m, false)
	PutF64(zkim)
	PutF64(zkre)
	fftSoA(zxre, zxim, true)
	interleaveScaled(out, zxre, zxim, hm)
	PutF64(zxim)
	PutF64(zxre)
	return out
}
