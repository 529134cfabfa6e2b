// Package kerneltest holds what the bit-exactness tests of the block
// kernels in dsp (FilterFrom) and channel (Render) share: a runner over
// both block paths, the special values every lane must reproduce, and an
// output slice with guarded neighbours.
package kerneltest

import (
	"math"
	"math/rand"
	"testing"
)

// ForEachPath runs f as a subtest on the Go block loops ("go") and on the
// AVX2 blocks ("avx2"). The second skips unless hasAVX2, the dispatch's
// dsp.HasAVX2(), is true.
func ForEachPath(t *testing.T, hasAVX2 bool, f func(t *testing.T, avx2 bool)) {
	t.Run("go", func(t *testing.T) { f(t, false) })
	t.Run("avx2", func(t *testing.T) {
		if !hasAVX2 {
			t.Skip("no AVX2 on this CPU or OS, or a race build")
		}
		f(t, true)
	})
}

// Specials are the values whose arithmetic a kernel must reproduce
// exactly: signed zeros, subnormals, infinities and magnitudes whose
// products overflow.
var Specials = []float64{0, math.Copysign(0, -1), 5e-324, -1e-310, 2.2e-308,
	math.Inf(1), math.Inf(-1), 1e300, -1e300}

// Sprinkle overwrites about one value in eight with a special.
func Sprinkle(rng *rand.Rand, v []float64) {
	for i := range v {
		if rng.Intn(8) == 0 {
			v[i] = Specials[rng.Intn(len(Specials))]
		}
	}
}

// sentinel is a NaN whose payload no arithmetic produces.
var sentinel = math.Float64frombits(0x7ff8dead0000beef)

// Guarded returns n values at offset off of a buffer that holds a
// sentinel everywhere else: off values before them and three after, which
// the slice's capacity reaches. intact reports whether every sentinel is
// still in place.
func Guarded(off, n int) (dst []float64, intact func() bool) {
	const guard = 3
	buf := make([]float64, off+n+guard)
	for i := range buf {
		buf[i] = sentinel
	}
	return buf[off : off+n], func() bool {
		for i, v := range buf {
			if (i < off || i >= off+n) && math.Float64bits(v) != math.Float64bits(sentinel) {
				return false
			}
		}
		return true
	}
}
