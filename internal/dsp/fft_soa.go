package dsp

import "math/bits"

// The split (structure-of-arrays) radix-4 FFT kernel. All hot transforms
// in the package — Plan's power-of-two transforms, RFFT and every
// correlation path built on them — bottom out here.
//
// Layout: the transform operates on two plain []float64 planes (re, im)
// instead of []complex128, so every butterfly is a handful of independent
// float64 multiply/adds over stride-1 slices — no complex shuffling, no
// strided twiddle walks, and bounds checks hoisted by equal-length
// reslicing. The decimation-in-time ladder runs radix-4 stages (2× fewer
// passes over the data and ~25% fewer multiplies than radix-2), with one
// twiddle-free radix-2 pass first when log2(n) is odd.
//
// Input order: callers hand the kernel data already in digit-reversed
// order (permFor), applied as a gather fused into the deinterleave or
// retangle pass that feeds the kernel — the mixed-radix reversal is not
// an involution, so there is deliberately no in-place permute pass here.
// Output is in natural order. Inverse transforms are unscaled; callers
// fold the 1/n into their final pass.

// fftSoA transforms the split-layout vector in place (forward when
// inverse is false). len(re) must equal len(im) and be a power of two;
// input in digit-reversed order, output natural. With avx2 the stages
// whose quarter length is a multiple of 4, and a leading radix-4 stage of
// at least four butterflies, run in assembly (see avx2_amd64.s) with the
// Go loops' arithmetic in every lane; avx2 must be false where HasAVX2
// is.
func fftSoA(re, im []float64, inverse, avx2 bool) {
	n := len(re)
	if n <= 1 {
		return
	}
	size := 1
	if bits.TrailingZeros(uint(n))&1 == 1 {
		radix2Pass(re, im)
		size = 2
	} else {
		first4(re, im, inverse, avx2)
		size = 4
	}
	for ; size < n; size *= 4 {
		switch {
		case avx2 && size%4 == 0:
			w1r, w1i, w2r, w2i, w3r, w3i := stagePlanes(4 * size)
			if inverse {
				radix4StageInvAVX2(re, im[:n], w1r, w1i, w2r, w2i, w3r, w3i)
			} else {
				radix4StageFwdAVX2(re, im[:n], w1r, w1i, w2r, w2i, w3r, w3i)
			}
		case inverse:
			radix4StageInv(re, im, size)
		default:
			radix4StageFwd(re, im, size)
		}
	}
}

// fftSoADIF is the decimation-in-frequency twin of fftSoA, forward only:
// input in NATURAL order, output in the same digit-reversed order fftSoA
// consumes as input. The correlation paths pair the two — DIF forward,
// fused spectrum fold in the permuted domain (see foldTable), DIT inverse
// — so deinterleave and interleave are both purely sequential and no
// standalone gather/scatter permutation pass ever runs.
//
// The stage ladder mirrors fftSoA's in reverse: radix-4 stages from block
// length n down, ending in the same twiddle-free radix4First (even
// log2(n)) or radix2Pass (odd) — which is what makes the output
// permutation exactly buildPerm's digit order. avx2 selects the path as
// in fftSoA.
func fftSoADIF(re, im []float64, avx2 bool) {
	n := len(re)
	if n <= 1 {
		return
	}
	size := n
	for ; size >= 8; size >>= 2 {
		if avx2 && size >= 16 {
			w1r, w1i, w2r, w2i, w3r, w3i := stagePlanes(size)
			dif4StageAVX2(re, im[:n], w1r, w1i, w2r, w2i, w3r, w3i)
		} else {
			dif4Stage(re, im, size)
		}
	}
	if size == 4 {
		first4(re, im, false, avx2)
	} else {
		radix2Pass(re, im)
	}
}

// stagePlanes returns the twiddle planes of the radix-4 stage of total
// length m, cut to its quarter length: the operands of the stage kernels.
func stagePlanes(m int) (w1r, w1i, w2r, w2i, w3r, w3i []float64) {
	st := stageTwiddlesFor(m)
	l := m / 4
	return st.w1re[:l], st.w1im[:l], st.w2re[:l], st.w2im[:l], st.w3re[:l], st.w3im[:l]
}

// first4 runs radix4First, in assembly when avx2 and the planes hold a
// whole number of four-butterfly passes.
func first4(re, im []float64, inverse, avx2 bool) {
	if n := len(re); avx2 && n%16 == 0 {
		radix4FirstAVX2(re, im[:n], inverse)
		return
	}
	radix4First(re, im, inverse)
}

// dif4Stage splits blocks of length size into four quarters: the
// transpose of radix4StageFwd, so the add/sub tree runs first and the
// twiddle multiplies land on the outputs.
//
//	A'[j] = a + b + c + d              a = A[j]        (→ bins ≡0 mod 4)
//	B'[j] = w^j  ·(t1 - j·t3)          b = B[j]        (→ bins ≡1)
//	C'[j] = w^2j ·(t0 - t2)            c = C[j]        (→ bins ≡2)
//	D'[j] = w^3j ·(t1 + j·t3)          d = D[j]        (→ bins ≡3)
//
// with t0 = a+c, t1 = a-c, t2 = b+d, t3 = b-d, w = e^{-2πi/size}; the
// twiddle planes are the same per-stage SoA tables the DIT stages read.
func dif4Stage(re, im []float64, size int) {
	n := len(re)
	l := size / 4
	st := stageTwiddlesFor(size)
	w1r, w1i := st.w1re[:l], st.w1im[:l]
	w2r, w2i := st.w2re[:l], st.w2im[:l]
	w3r, w3i := st.w3re[:l], st.w3im[:l]
	for s := 0; s < n; s += size {
		ar := re[s : s+l : s+l]
		ai := im[s : s+l : s+l]
		br := re[s+l:][:l:l]
		bi := im[s+l:][:l:l]
		cr := re[s+2*l:][:l:l]
		ci := im[s+2*l:][:l:l]
		dr := re[s+3*l:][:l:l]
		di := im[s+3*l:][:l:l]
		for j := range ar {
			t0r, t0i := ar[j]+cr[j], ai[j]+ci[j]
			t1r, t1i := ar[j]-cr[j], ai[j]-ci[j]
			t2r, t2i := br[j]+dr[j], bi[j]+di[j]
			t3r, t3i := br[j]-dr[j], bi[j]-di[j]
			ar[j], ai[j] = t0r+t2r, t0i+t2i
			vr, vi := t1r+t3i, t1i-t3r // t1 - j·t3
			br[j], bi[j] = float64(vr*w1r[j])-float64(vi*w1i[j]), float64(vr*w1i[j])+float64(vi*w1r[j])
			ur, ui := t0r-t2r, t0i-t2i
			cr[j], ci[j] = float64(ur*w2r[j])-float64(ui*w2i[j]), float64(ur*w2i[j])+float64(ui*w2r[j])
			zr, zi := t1r-t3i, t1i+t3r // t1 + j·t3
			dr[j], di[j] = float64(zr*w3r[j])-float64(zi*w3i[j]), float64(zr*w3i[j])+float64(zi*w3r[j])
		}
	}
}

// radix2Pass runs twiddle-free radix-2 butterflies over adjacent pairs —
// the leading stage when log2(n) is odd. Identical for both directions.
func radix2Pass(re, im []float64) {
	im = im[:len(re)] // ties the planes' lengths for the bounds prover
	for s := 0; s+1 < len(re); s += 2 {
		ar, ai := re[s], im[s]
		br, bi := re[s+1], im[s+1]
		re[s], im[s] = ar+br, ai+bi
		re[s+1], im[s+1] = ar-br, ai-bi
	}
}

// radix4First runs the leading radix-4 stage (block length 1): all
// twiddles are 1, so the butterflies reduce to adds and one ±j rotation.
func radix4First(re, im []float64, inverse bool) {
	im = im[:len(re)] // ties the planes' lengths for the bounds prover
	for s := 0; s+3 < len(re); s += 4 {
		ar, ai := re[s], im[s]
		br, bi := re[s+1], im[s+1]
		cr, ci := re[s+2], im[s+2]
		dr, di := re[s+3], im[s+3]
		t0r, t0i := ar+cr, ai+ci
		t1r, t1i := ar-cr, ai-ci
		t2r, t2i := br+dr, bi+di
		t3r, t3i := br-dr, bi-di
		re[s], im[s] = t0r+t2r, t0i+t2i
		re[s+2], im[s+2] = t0r-t2r, t0i-t2i
		if inverse {
			re[s+1], im[s+1] = t1r-t3i, t1i+t3r
			re[s+3], im[s+3] = t1r+t3i, t1i-t3r
		} else {
			re[s+1], im[s+1] = t1r+t3i, t1i-t3r
			re[s+3], im[s+3] = t1r-t3i, t1i+t3r
		}
	}
}

// radix4StageFwd merges blocks of length size four at a time:
//
//	X[k]        = t0 + t2          t0 = a + c    a = A[k]
//	X[k+L]      = t1 - j·t3        t1 = a - c    b = w^k  B[k]
//	X[k+2L]     = t0 - t2          t2 = b + d    c = w^2k C[k]
//	X[k+3L]     = t1 + j·t3        t3 = b - d    d = w^3k D[k]
//
// with L = size and w = e^{-2πi/4L}. The twiddle planes come from the
// per-stage SoA table; every slice in the inner loop is resliced to the
// block length so the loop body runs bounds-check free.
func radix4StageFwd(re, im []float64, size int) {
	n := len(re)
	st := stageTwiddlesFor(4 * size)
	w1r, w1i := st.w1re[:size], st.w1im[:size]
	w2r, w2i := st.w2re[:size], st.w2im[:size]
	w3r, w3i := st.w3re[:size], st.w3im[:size]
	for s := 0; s < n; s += 4 * size {
		ar := re[s : s+size : s+size]
		ai := im[s : s+size : s+size]
		br := re[s+size:][:size:size]
		bi := im[s+size:][:size:size]
		cr := re[s+2*size:][:size:size]
		ci := im[s+2*size:][:size:size]
		dr := re[s+3*size:][:size:size]
		di := im[s+3*size:][:size:size]
		for k := range ar {
			brk := float64(br[k]*w1r[k]) - float64(bi[k]*w1i[k])
			bik := float64(br[k]*w1i[k]) + float64(bi[k]*w1r[k])
			crk := float64(cr[k]*w2r[k]) - float64(ci[k]*w2i[k])
			cik := float64(cr[k]*w2i[k]) + float64(ci[k]*w2r[k])
			drk := float64(dr[k]*w3r[k]) - float64(di[k]*w3i[k])
			dik := float64(dr[k]*w3i[k]) + float64(di[k]*w3r[k])
			t0r, t0i := ar[k]+crk, ai[k]+cik
			t1r, t1i := ar[k]-crk, ai[k]-cik
			t2r, t2i := brk+drk, bik+dik
			t3r, t3i := brk-drk, bik-dik
			ar[k], ai[k] = t0r+t2r, t0i+t2i
			br[k], bi[k] = t1r+t3i, t1i-t3r
			cr[k], ci[k] = t0r-t2r, t0i-t2i
			dr[k], di[k] = t1r-t3i, t1i+t3r
		}
	}
}

// radix4StageInv is radix4StageFwd with conjugated twiddles and the ±j
// rotation flipped — the inverse-transform stage.
func radix4StageInv(re, im []float64, size int) {
	n := len(re)
	st := stageTwiddlesFor(4 * size)
	w1r, w1i := st.w1re[:size], st.w1im[:size]
	w2r, w2i := st.w2re[:size], st.w2im[:size]
	w3r, w3i := st.w3re[:size], st.w3im[:size]
	for s := 0; s < n; s += 4 * size {
		ar := re[s : s+size : s+size]
		ai := im[s : s+size : s+size]
		br := re[s+size:][:size:size]
		bi := im[s+size:][:size:size]
		cr := re[s+2*size:][:size:size]
		ci := im[s+2*size:][:size:size]
		dr := re[s+3*size:][:size:size]
		di := im[s+3*size:][:size:size]
		for k := range ar {
			brk := float64(br[k]*w1r[k]) + float64(bi[k]*w1i[k])
			bik := float64(bi[k]*w1r[k]) - float64(br[k]*w1i[k])
			crk := float64(cr[k]*w2r[k]) + float64(ci[k]*w2i[k])
			cik := float64(ci[k]*w2r[k]) - float64(cr[k]*w2i[k])
			drk := float64(dr[k]*w3r[k]) + float64(di[k]*w3i[k])
			dik := float64(di[k]*w3r[k]) - float64(dr[k]*w3i[k])
			t0r, t0i := ar[k]+crk, ai[k]+cik
			t1r, t1i := ar[k]-crk, ai[k]-cik
			t2r, t2i := brk+drk, bik+dik
			t3r, t3i := brk-drk, bik-dik
			ar[k], ai[k] = t0r+t2r, t0i+t2i
			br[k], bi[k] = t1r-t3i, t1i+t3r
			cr[k], ci[k] = t0r-t2r, t0i-t2i
			dr[k], di[k] = t1r+t3i, t1i-t3r
		}
	}
}
