package dsp

import (
	"fmt"
)

// Real-input transforms on the split radix-4/2 kernel. A real length-n
// signal packs into an n/2-point complex transform (adjacent sample pairs
// as re/im) and one untangle pass recovers the true spectrum, so a real
// transform costs roughly half its complex counterpart — the reason
// BankStream scans on this path.
//
// Three spectrum representations exist:
//
//   - The public RFFT speaks []complex128 (bins 0..n/2), the package's
//     stable API.
//   - The internal rfftInto speaks natural-order split re/im planes —
//     used where actual bin values matter (template spectrum
//     construction).
//   - The correlation hot paths never leave the kernel's digit-reversed
//     packed order at all: rfftPacked (DIF forward, natural input →
//     permuted packed spectrum), the fused fold foldSpecMulTo (untangle ⊙
//     multiply ⊙ retangle in the permuted domain, in place),
//     and the DIT inverse (permuted input → natural output). Every memory
//     stream in that pipeline is sequential except the fold table's
//     partner-position lookup; see foldTable in tables.go.

// rfftHalf deinterleaves the real signal x (len n, a power of two) into
// the kernel's digit-reversed split layout and runs the forward n/2-point
// transform; zre/zim (len n/2) end up holding the natural-order packed
// spectrum z[k] = E[k] + i·O[k] of the even/odd sample subsequences.
// avx2 selects the transform's path (see fftSoA).
func rfftHalf(zre, zim, x []float64, avx2 bool) {
	for i, p := range permFor(len(x) / 2) {
		zre[i] = x[2*int(p)]
		zim[i] = x[2*int(p)+1]
	}
	fftSoA(zre, zim, false, avx2)
}

// RFFT computes the non-negative-frequency half of the DFT of a real
// signal whose length n is a power of two, writing bins 0..n/2 into dst
// (len(dst) must be n/2+1). The remaining bins follow from conjugate
// symmetry: X[n-k] = conj(X[k]). x is left unmodified.
func RFFT(dst []complex128, x []float64) { rfft(dst, x, useAVX2) }

// rfft is RFFT with the transform's path chosen by the caller (see
// fftSoA).
func rfft(dst []complex128, x []float64, avx2 bool) {
	n := len(x)
	if !IsPow2(n) {
		panic(fmt.Sprintf("dsp: RFFT length %d is not a power of two", n))
	}
	if len(dst) != n/2+1 {
		panic(fmt.Sprintf("dsp: RFFT needs %d output bins, got %d", n/2+1, len(dst)))
	}
	if n == 1 {
		dst[0] = complex(x[0], 0)
		return
	}
	h := n / 2
	zre := GetF64(h)
	zim := GetF64(h)
	rfftHalf(zre, zim, x, avx2)
	// Untangle: X[k] = E[k] + w^k·O[k] (w = e^{-2πi/n}); the mirror bin is
	// X[h-k] = conj(E[k] - w^k·O[k]).
	dst[0] = complex(zre[0]+zim[0], 0)
	dst[h] = complex(zre[0]-zim[0], 0)
	ht := halfTwiddlesFor(n)
	for k := 1; 2*k <= h; k++ {
		zkr, zki := zre[k], zim[k]
		zcr, zci := zre[h-k], -zim[h-k]
		er, ei := float64((zkr+zcr)*0.5), float64((zki+zci)*0.5)
		or, oi := float64((zki-zci)*0.5), float64((zcr-zkr)*0.5) // (z[k]-conj(z[h-k])) / 2i
		tr := float64(ht.re[k]*or) - float64(ht.im[k]*oi)
		ti := float64(ht.re[k]*oi) + float64(ht.im[k]*or)
		dst[k] = complex(er+tr, ei+ti)
		dst[h-k] = complex(er-tr, ti-ei)
	}
	PutF64(zim)
	PutF64(zre)
}

// rfftInto is RFFT with split-plane output: dre/dim (len n/2+1 each)
// receive the spectrum bins 0..n/2 as separate re/im arrays — the cached
// template-spectrum format the fused correlation folds consume.
func rfftInto(dre, dim []float64, x []float64) {
	n := len(x)
	h := n / 2
	if n == 1 {
		dre[0], dim[0] = x[0], 0
		return
	}
	zre := GetF64(h)
	zim := GetF64(h)
	rfftHalf(zre, zim, x, useAVX2)
	dre[0], dim[0] = zre[0]+zim[0], 0
	dre[h], dim[h] = zre[0]-zim[0], 0
	ht := halfTwiddlesFor(n)
	for k := 1; 2*k <= h; k++ {
		zkr, zki := zre[k], zim[k]
		zcr, zci := zre[h-k], -zim[h-k]
		er, ei := float64((zkr+zcr)*0.5), float64((zki+zci)*0.5)
		or, oi := float64((zki-zci)*0.5), float64((zcr-zkr)*0.5)
		tr := float64(ht.re[k]*or) - float64(ht.im[k]*oi)
		ti := float64(ht.re[k]*oi) + float64(ht.im[k]*or)
		dre[k], dim[k] = er+tr, ei+ti
		dre[h-k], dim[h-k] = er-tr, ti-ei
	}
	PutF64(zim)
	PutF64(zre)
}

// rfftPacked deinterleaves the real signal x — zero-extended on the right
// to length 2·len(zre) — into the split planes in natural order and runs
// the forward DIF half-length transform. zre/zim end up holding the
// packed spectrum z[k] = E[k] + i·O[k] in the kernel's digit-reversed
// position order (bin perm[i] at position i). There is no padded staging
// buffer and no gather pass: zero-padding, deinterleave and permutation
// all dissolve into this one sequential loop plus the DIF ladder, on the
// path avx2 selects (see fftSoA).
func rfftPacked(zre, zim []float64, x []float64, avx2 bool) {
	h := len(zre)
	m := len(x) / 2
	for j := 0; j < m; j++ {
		zre[j] = x[2*j]
		zim[j] = x[2*j+1]
	}
	if len(x)&1 == 1 {
		zre[m], zim[m] = x[len(x)-1], 0
		m++
	}
	for j := m; j < h; j++ {
		zre[j], zim[j] = 0, 0
	}
	fftSoADIF(zre, zim, avx2)
}

// interleaveScaled writes the first len(dst) samples of an inverse
// half-length transform's natural-order packed output into dst with the
// 1/h scale. Correlation callers keep only the valid lags, so the
// wrapped tail of the circular result is never even interleaved. With
// avx2, whole runs of eight outputs are written in assembly.
func interleaveScaled(dst []float64, zre, zim []float64, h int, avx2 bool) {
	s := 1 / float64(h)
	n := len(dst)
	j := 0
	if m := n / 8 * 4; avx2 && m > 0 {
		interleaveScaledAVX2(dst[:2*m], zre[:m], zim[:m], s)
		j = m
	}
	for ; 2*j+1 < n; j++ {
		dst[2*j] = zre[j] * s
		dst[2*j+1] = zim[j] * s
	}
	if n&1 == 1 {
		dst[n-1] = zre[n/2] * s
	}
}

// foldSpec is a template spectrum rearranged into fold-table order for
// one padded size n: DC and Nyquist as scalars (bins 0 and n/2, real by
// conjugate symmetry of a real template), the self-conjugate bin n/4 as
// one complex scalar, and the conjugate bin pairs as four arrays aligned
// with foldTableFor(n)'s pair order, so foldSpecMulTo streams them
// sequentially alongside the twiddles. Any conjugation (matched filters
// cache conj(H)) is baked in at construction.
type foldSpec struct {
	s0, sh   float64   // bins 0 and n/2
	smr, smi float64   // bin n/4 (zero-valued fields when n < 4)
	are, aim []float64 // S[k] per pair
	bre, bim []float64 // S[h-k] per pair
}

// newFoldSpec rearranges a natural-order split-plane spectrum (n/2+1
// bins) into fold order for padded size n >= 2.
func newFoldSpec(sre, sim []float64, n int) *foldSpec {
	h := n / 2
	ft := foldTableFor(n)
	perm := permFor(h)
	fs := &foldSpec{s0: sre[0], sh: sre[h]}
	if ft.mid >= 0 {
		fs.smr, fs.smi = sre[h/2], sim[h/2]
	}
	np := len(ft.ia)
	fs.are = make([]float64, np)
	fs.aim = make([]float64, np)
	fs.bre = make([]float64, np)
	fs.bim = make([]float64, np)
	for p, i := range ft.ia {
		k := int(perm[i])
		fs.are[p], fs.aim[p] = sre[k], sim[k]
		fs.bre[p], fs.bim[p] = sre[h-k], sim[h-k]
	}
	return fs
}

// foldSpecMulTo is the fused frequency-domain core of every cached
// matched filter: given the packed stream spectrum in digit-reversed
// order (zre/zim, length n/2, from rfftPacked), it untangles each
// conjugate bin pair to the true bins X[k], X[h-k], multiplies by the
// cached template spectrum and retangles the product straight back into
// packed digit-reversed order in dzre/dzim — ready for the DIT inverse.
// One pass, entirely in the permuted domain: untangle, multiply and
// retangle share the pair's twiddle, the template and twiddles stream
// sequentially, and only the fold table's ib side jumps around. dst may
// alias src (the correlation paths fold in place); every position is
// written exactly once, so a distinct dst needs no pre-clearing. With
// avx2, whole runs of four pairs are folded in assembly.
func foldSpecMulTo(dzre, dzim, zre, zim []float64, fs *foldSpec, n int, avx2 bool) {
	ft := foldTableFor(n)
	// Position 0 packs DC and Nyquist: X[0] = z0r+z0i, X[h] = z0r-z0i,
	// both real, multiplied bin-wise and re-packed the same way.
	z0r, z0i := zre[0], zim[0]
	y0 := float64((z0r + z0i) * fs.s0)
	yh := float64((z0r - z0i) * fs.sh)
	dzre[0], dzim[0] = float64((y0+yh)*0.5), float64((y0-yh)*0.5)
	if m := ft.mid; m >= 0 {
		// Self-conjugate bin h/2: w^{h/2} = -j collapses the untangle to
		// X = conj(z[m]) and the retangle to conj(Y).
		xr, xi := zre[m], -zim[m]
		yr, yi := float64(xr*fs.smr)-float64(xi*fs.smi), float64(xr*fs.smi)+float64(xi*fs.smr)
		dzre[m], dzim[m] = yr, -yi
	}
	ia := ft.ia
	ib := ft.ib[:len(ia)]
	wre := ft.wre[:len(ia)]
	wim := ft.wim[:len(ia)]
	are := fs.are[:len(ia)]
	aim := fs.aim[:len(ia)]
	bre := fs.bre[:len(ia)]
	bim := fs.bim[:len(ia)]
	if m := len(ia) &^ 3; avx2 && m > 0 {
		h := n / 2
		foldPairsAVX2(dzre[:h], dzim[:h], zre[:h], zim[:h], ia[:m], ib[:m],
			wre[:m], wim[:m], are[:m], aim[:m], bre[:m], bim[:m])
		ia, ib, wre, wim, are, aim, bre, bim = ia[m:], ib[m:], wre[m:], wim[m:], are[m:], aim[m:], bre[m:], bim[m:]
	}
	for p, i := range ia {
		j := ib[p]
		zar, zai := zre[i], zim[i]
		zbr, zbi := zre[j], zim[j]
		er, ei := float64((zar+zbr)*0.5), float64((zai-zbi)*0.5)
		or, oi := float64((zai+zbi)*0.5), float64((zbr-zar)*0.5) // (z_a - conj(z_b)) / 2j
		tr := float64(wre[p]*or) - float64(wim[p]*oi)
		ti := float64(wre[p]*oi) + float64(wim[p]*or)
		xar, xai := er+tr, ei+ti // X[k]
		xbr, xbi := er-tr, ti-ei // X[h-k] = conj(e - w^k·o)
		yar, yai := float64(xar*are[p])-float64(xai*aim[p]), float64(xar*aim[p])+float64(xai*are[p])
		ybr, ybi := float64(xbr*bre[p])-float64(xbi*bim[p]), float64(xbr*bim[p])+float64(xbi*bre[p])
		er, ei = float64((yar+ybr)*0.5), float64((yai-ybi)*0.5)
		sr, si := float64((yar-ybr)*0.5), float64((yai+ybi)*0.5)
		or, oi = float64(sr*wre[p])+float64(si*wim[p]), float64(si*wre[p])-float64(sr*wim[p]) // s · conj(w^k)
		dzre[i], dzim[i] = er-oi, ei+or
		dzre[j], dzim[j] = er+oi, or-ei
	}
}
