package dsp

import (
	"fmt"
	"math/rand"
	"testing"
)

// Microbenchmarks for the three layers the kernel rework touched: the
// complex pow2 transform (stage ladder), the fused permuted-domain
// spectrum fold (the per-template cost of a BankStream block), and the
// window-energy normalization pass. CI tracks these alongside the
// end-to-end correlation benchmarks to localize regressions to a layer.

func BenchmarkFFTPow2(b *testing.B) {
	for _, n := range []int{1 << 10, 1 << 14, 1 << 17} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			x := randComplex(rand.New(rand.NewSource(1)), n)
			work := make([]complex128, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(work, x)
				fftPow2(work, false, useAVX2)
			}
		})
	}
}

func BenchmarkSpectrumMultiply(b *testing.B) {
	// The fold at the preamble bank's block size: block 2^17, packed
	// spectrum 2^16 — one fused untangle·multiply·retangle pass.
	const m = 1 << 17
	hm := m / 2
	r := rand.New(rand.NewSource(1))
	mt := NewMatcher(randReal(r, 9840))
	fs := mt.spectrum(m)
	zre, zim := randReal(r, hm), randReal(r, hm)
	dre, dim := make([]float64, hm), make([]float64, hm)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		foldSpecMulTo(dre, dim, zre, zim, fs, m, useAVX2)
	}
}

func BenchmarkNormalizeFold(b *testing.B) {
	// The window-energy normalization BankStream applies, over a 20 s
	// stream at the preamble's template length, off one precomputed
	// compensated energy prefix.
	const n, hlen = 1 << 20, 9840
	r := rand.New(rand.NewSource(1))
	x := randReal(r, n)
	prefix := make([]float64, n+1)
	var sum, comp float64
	for i, v := range x {
		sum, comp = neumaierAdd(sum, comp, v*v)
		prefix[i+1] = sum + comp
	}
	src := randReal(r, n-hlen+1)
	work := make([]float64, len(src))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(work, src)
		normalizeWithPrefix(work, prefix, hlen, 3.7, useAVX2)
	}
}
