package dsp

import (
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
)

// Precomputed constants for the power-of-two SoA FFT kernel, cached per
// size class and shared by every goroutine (engine workers hammer the
// same sizes concurrently). Independent table families exist so a size
// class only ever builds what its callers actually touch:
//
//   - permFor(n): the mixed-radix digit-reversal gather permutation the
//     radix-4/2 DIT kernel consumes. It is applied while deinterleaving
//     input into the kernel's split re/im scratch (one fused gather pass),
//     never as a standalone swap pass — the mixed [2,4,4,…] digit order is
//     not an involution, so in-place pair swapping would mis-permute.
//   - stageTwiddlesFor(m): per-butterfly-stage twiddles for the stage that
//     merges four blocks of length m/4, laid out structure-of-arrays as six
//     separate float64 slices (w^k, w^2k, w^3k × re/im) indexed stride-1 by
//     the butterfly position k. A stage's table depends only on the stage
//     length, not the transform length, so every transform size shares one
//     table per stage class and the inner loops read all six arrays
//     sequentially — the layout the tentpole flat kernels are built around.
//   - halfTwiddlesFor(n): e^{-2πik/n} for k ≤ n/4 as split re/im arrays,
//     consumed by the RFFT untangle and fold passes.
//
// Every entry is computed independently from its exact angle (accurate to
// 1 ulp); inverse transforms conjugate in the butterfly body instead of
// keeping second tables. Tables are immutable once published; readers are
// lock-free, builders serialize on one mutex and double-check, so each
// table is computed exactly once.
var (
	permCache  [bits.UintSize]atomic.Pointer[[]int32]
	stageCache [bits.UintSize]atomic.Pointer[stageTwiddles]
	halfCache  [bits.UintSize]atomic.Pointer[halfTwiddles]
	foldCache  [bits.UintSize]atomic.Pointer[foldTable]
	fftTableMu sync.Mutex
)

// stageTwiddles holds one butterfly stage's twiddle factors in
// structure-of-arrays layout: position k of a stage merging four blocks of
// length L carries w^k, w^2k and w^3k with w = e^{-2πi/4L}, split into
// re/im planes so the kernel's inner loop is six stride-1 float64 streams.
type stageTwiddles struct {
	w1re, w1im []float64 // e^{-2πik/4L}
	w2re, w2im []float64 // e^{-4πik/4L}
	w3re, w3im []float64 // e^{-6πik/4L}
}

// halfTwiddles holds e^{-2πik/n}, k in [0, n/4], split into re/im planes
// for the real-transform untangle passes.
type halfTwiddles struct {
	re, im []float64
}

// permFor returns the shared digit-reversal gather permutation for the
// radix-4 (with one leading radix-2 digit when log2(n) is odd) DIT ladder
// at power-of-two size n: element i of the kernel's working order is
// input element perm[i].
func permFor(n int) []int32 {
	class := bits.TrailingZeros(uint(n))
	if p := permCache[class].Load(); p != nil {
		return *p
	}
	fftTableMu.Lock()
	defer fftTableMu.Unlock()
	if p := permCache[class].Load(); p != nil {
		return *p
	}
	perm := buildPerm(n)
	permCache[class].Store(&perm)
	return perm
}

// buildPerm constructs the digit reversal recursively, mirroring the DIT
// decomposition: the transform of length n is four interleaved transforms
// of length n/4 (mod-4 subsequences), bottoming out in a radix-2 split
// when two elements remain — exactly the stage ladder fftSoA runs.
func buildPerm(n int) []int32 {
	if n == 1 {
		return []int32{0}
	}
	if n == 2 {
		return []int32{0, 1}
	}
	sub := buildPerm(n / 4)
	perm := make([]int32, n)
	q := n / 4
	for j := 0; j < 4; j++ {
		for i, s := range sub {
			perm[j*q+i] = 4*s + int32(j)
		}
	}
	return perm
}

// stageTwiddlesFor returns the shared twiddle planes for the radix-4 stage
// of total length m (merging four blocks of m/4); each plane has m/4
// entries. m must be a power of two >= 4.
func stageTwiddlesFor(m int) *stageTwiddles {
	class := bits.TrailingZeros(uint(m))
	if p := stageCache[class].Load(); p != nil {
		return p
	}
	fftTableMu.Lock()
	defer fftTableMu.Unlock()
	if p := stageCache[class].Load(); p != nil {
		return p
	}
	l := m / 4
	st := &stageTwiddles{
		w1re: make([]float64, l), w1im: make([]float64, l),
		w2re: make([]float64, l), w2im: make([]float64, l),
		w3re: make([]float64, l), w3im: make([]float64, l),
	}
	for k := 0; k < l; k++ {
		a := -2 * math.Pi * float64(k) / float64(m)
		st.w1re[k], st.w1im[k] = math.Cos(a), math.Sin(a)
		st.w2re[k], st.w2im[k] = math.Cos(2*a), math.Sin(2*a)
		st.w3re[k], st.w3im[k] = math.Cos(3*a), math.Sin(3*a)
	}
	stageCache[class].Store(st)
	return st
}

// foldTable drives the fused permuted-domain spectrum folds (see
// foldSpecMulTo in rfft.go): the correlation hot path keeps the
// half-length packed spectrum in the kernel's digit-reversed order the
// whole way through — forward DIF writes it, the fold rewrites it in
// place, inverse DIT consumes it — so the only non-sequential memory
// stream in a whole correlation is this table's partner-position lookup.
//
// For real length n (packed length h = n/2), the conjugate-symmetric bin
// pairs (k, h-k), k in [1, h/2), appear at kernel positions ia[p] (bin k)
// and ib[p] (bin h-k). Pairs are sorted by ascending ia so the za-side
// loads sweep forward; only the ib side jumps. wre/wim hold the untangle
// twiddle e^{-2πik/n} aligned with the pair order, and mid is the
// position of the self-conjugate bin h/2 (-1 when h < 2). Bin 0 always
// sits at position 0 (the permutation fixes index 0) and carries the
// packed DC/Nyquist combination.
type foldTable struct {
	ia, ib   []int32
	wre, wim []float64
	mid      int32
}

// foldTableFor returns the shared fold table for real transforms of
// power-of-two size n >= 2.
func foldTableFor(n int) *foldTable {
	class := bits.TrailingZeros(uint(n))
	if p := foldCache[class].Load(); p != nil {
		return p
	}
	fftTableMu.Lock()
	defer fftTableMu.Unlock()
	if p := foldCache[class].Load(); p != nil {
		return p
	}
	h := n / 2
	perm := buildPerm(h)
	iperm := make([]int32, h)
	for i, p := range perm {
		iperm[p] = int32(i)
	}
	ft := &foldTable{mid: -1}
	if h >= 2 {
		ft.mid = iperm[h/2]
	}
	np := h/2 - 1
	if np > 0 {
		ft.ia = make([]int32, 0, np)
		ft.ib = make([]int32, 0, np)
		ft.wre = make([]float64, 0, np)
		ft.wim = make([]float64, 0, np)
		for i := 0; i < h; i++ {
			k := int(perm[i])
			if k == 0 || 2*k == h {
				continue
			}
			j := iperm[h-k]
			if int(j) < i {
				continue // partner already emitted the pair
			}
			a := -2 * math.Pi * float64(k) / float64(n)
			ft.ia = append(ft.ia, int32(i))
			ft.ib = append(ft.ib, j)
			ft.wre = append(ft.wre, math.Cos(a))
			ft.wim = append(ft.wim, math.Sin(a))
		}
	}
	foldCache[class].Store(ft)
	return ft
}

// halfTwiddlesFor returns the shared untangle twiddles for real transforms
// of power-of-two size n: w[k] = e^{-2πik/n} for k in [0, n/4], split
// re/im.
func halfTwiddlesFor(n int) *halfTwiddles {
	class := bits.TrailingZeros(uint(n))
	if p := halfCache[class].Load(); p != nil {
		return p
	}
	fftTableMu.Lock()
	defer fftTableMu.Unlock()
	if p := halfCache[class].Load(); p != nil {
		return p
	}
	l := n/4 + 1
	ht := &halfTwiddles{re: make([]float64, l), im: make([]float64, l)}
	for k := 0; k < l; k++ {
		a := -2 * math.Pi * float64(k) / float64(n)
		ht.re[k], ht.im[k] = math.Cos(a), math.Sin(a)
	}
	halfCache[class].Store(ht)
	return ht
}
