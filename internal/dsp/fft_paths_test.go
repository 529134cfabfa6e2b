package dsp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"uwpos/internal/kerneltest"
)

// Bit-exactness of the transform and correlation-block kernels on both
// paths: each case runs the path under test and the Go loops on the same
// input and requires every output bit to agree. On the "go" path the
// comparison checks that the Go loops are deterministic; on the "avx2"
// path it checks that every lane of the assembly repeats their
// arithmetic.

// wideReal returns n values of random sign with magnitudes spread
// log-uniformly over 1e-10 … 1e10.
func wideReal(r *rand.Rand, n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Pow(10, 20*r.Float64()-10)
		if r.Intn(2) == 0 {
			x[i] = -x[i]
		}
	}
	return x
}

func requireSameComplexBits(t *testing.T, what string, got, want []complex128) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d bins, want %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(real(got[i])) != math.Float64bits(real(want[i])) ||
			math.Float64bits(imag(got[i])) != math.Float64bits(imag(want[i])) {
			t.Fatalf("%s: bin %d: %v != %v", what, i, got[i], want[i])
		}
	}
}

// TestFFTSoAPathsMatch: fftSoA forward and inverse and fftSoADIF at every
// power-of-two size 2…2²⁰, so both the radix-2-first and radix-4-first
// ladders run at every depth, on inputs spanning 1e±10 and, up to 2¹², on
// inputs holding special values.
func TestFFTSoAPathsMatch(t *testing.T) {
	kerneltest.ForEachPath(t, HasAVX2(), fftSoAPathsMatch)
}

func fftSoAPathsMatch(t *testing.T, avx2 bool) {
	r := rand.New(rand.NewSource(71))
	maxN := 1 << 20
	if testing.Short() {
		maxN = 1 << 16
	}
	for n := 2; n <= maxN; n *= 2 {
		inputs := [][2][]float64{{wideReal(r, n), wideReal(r, n)}}
		if n <= 1<<12 {
			re, im := randReal(r, n), randReal(r, n)
			kerneltest.Sprinkle(r, re)
			kerneltest.Sprinkle(r, im)
			inputs = append(inputs, [2][]float64{re, im})
		}
		for c, in := range inputs {
			for _, tr := range []struct {
				name string
				run  func(re, im []float64, avx2 bool)
			}{
				{"forward", func(re, im []float64, avx2 bool) { fftSoA(re, im, false, avx2) }},
				{"inverse", func(re, im []float64, avx2 bool) { fftSoA(re, im, true, avx2) }},
				{"DIF", fftSoADIF},
			} {
				wre, wim := append([]float64(nil), in[0]...), append([]float64(nil), in[1]...)
				tr.run(wre, wim, false)
				gre, gim := append([]float64(nil), in[0]...), append([]float64(nil), in[1]...)
				tr.run(gre, gim, avx2)
				what := fmt.Sprintf("n=%d input %d %s", n, c, tr.name)
				requireSameBits(t, what+" re", gre, wre)
				requireSameBits(t, what+" im", gim, wim)
			}
		}
	}
}

// TestRFFTAndPlanPathsMatch: RFFT at every power of two to 2¹⁶, and Plan
// forward and inverse at power-of-two and Bluestein lengths (1920 among
// them), give the same bits on both paths.
func TestRFFTAndPlanPathsMatch(t *testing.T) {
	kerneltest.ForEachPath(t, HasAVX2(), rfftAndPlanPathsMatch)
}

func rfftAndPlanPathsMatch(t *testing.T, avx2 bool) {
	r := rand.New(rand.NewSource(72))
	for n := 1; n <= 1<<16; n *= 2 {
		x := wideReal(r, n)
		want := make([]complex128, n/2+1)
		rfft(want, x, false)
		got := make([]complex128, n/2+1)
		rfft(got, x, avx2)
		requireSameComplexBits(t, fmt.Sprintf("RFFT n=%d", n), got, want)
	}
	for _, n := range []int{3, 5, 64, 100, 1000, 1024, 1920, 4096, 4801} {
		p := NewPlan(n)
		x := randComplex(r, n)
		for _, inverse := range []bool{false, true} {
			want := append([]complex128(nil), x...)
			p.transform(want, inverse, false)
			got := append([]complex128(nil), x...)
			p.transform(got, inverse, avx2)
			requireSameComplexBits(t, fmt.Sprintf("Plan n=%d inverse=%v", n, inverse), got, want)
		}
	}
}

// TestFoldSpecMulToPathsMatch: at every padded size 2…2¹⁶, over packed
// spectra holding special values, the spectrum fold gives the same bits
// on both paths, into a distinct dst and in place.
func TestFoldSpecMulToPathsMatch(t *testing.T) {
	kerneltest.ForEachPath(t, HasAVX2(), foldSpecMulToPathsMatch)
}

func foldSpecMulToPathsMatch(t *testing.T, avx2 bool) {
	r := rand.New(rand.NewSource(76))
	for n := 2; n <= 1<<16; n *= 2 {
		h := n / 2
		fs := NewMatcher(randReal(r, max(1, n/3))).spectrum(n)
		zre, zim := wideReal(r, h), wideReal(r, h)
		if n <= 1<<12 {
			kerneltest.Sprinkle(r, zre)
			kerneltest.Sprinkle(r, zim)
		}
		wre, wim := make([]float64, h), make([]float64, h)
		foldSpecMulTo(wre, wim, zre, zim, fs, n, false)
		gre, gim := make([]float64, h), make([]float64, h)
		foldSpecMulTo(gre, gim, zre, zim, fs, n, avx2)
		requireSameBits(t, fmt.Sprintf("n=%d re", n), gre, wre)
		requireSameBits(t, fmt.Sprintf("n=%d im", n), gim, wim)
		foldSpecMulTo(zre, zim, zre, zim, fs, n, avx2)
		requireSameBits(t, fmt.Sprintf("n=%d in place re", n), zre, wre)
		requireSameBits(t, fmt.Sprintf("n=%d in place im", n), zim, wim)
	}
}

// TestNormalizeWithPrefixPathsMatch: at every length 0–67, into a dst at
// an odd offset of a guarded buffer, over lags and energy prefixes that
// hold special values, flat stretches (zero-energy windows), decreasing
// stretches (a negative window energy) and infinities (a NaN root, which
// still divides), both paths give the same bits and write nothing
// outside dst.
func TestNormalizeWithPrefixPathsMatch(t *testing.T) {
	kerneltest.ForEachPath(t, HasAVX2(), normalizeWithPrefixPathsMatch)
}

func normalizeWithPrefixPathsMatch(t *testing.T, avx2 bool) {
	r := rand.New(rand.NewSource(73))
	for n := 0; n <= 67; n++ {
		for _, eh := range []float64{3.7, 1e-70, -2, 0} {
			hlen := 1 + r.Intn(40)
			prefix := make([]float64, n+hlen)
			var sum float64
			for i := range prefix {
				switch r.Intn(10) {
				case 0: // flat: a zero-energy window where it spans hlen
				case 1:
					sum -= r.Float64() // energy falls: a negative ex
				case 2:
					sum = math.Inf(1 - 2*r.Intn(2))
				default:
					sum = math.Abs(sum) + r.Float64()
				}
				prefix[i] = sum
			}
			if n > 8 {
				for i := n / 2; i < n/2+4 && i+hlen < len(prefix); i++ {
					prefix[i+hlen] = prefix[i] // an exact zero-energy window
				}
			}
			lags := randReal(r, n)
			kerneltest.Sprinkle(r, lags)
			want := append([]float64(nil), lags...)
			normalizeWithPrefix(want, prefix, hlen, eh, false)
			got, intact := kerneltest.Guarded(3, n)
			copy(got, lags)
			normalizeWithPrefix(got, prefix, hlen, eh, avx2)
			what := fmt.Sprintf("n=%d eh=%g", n, eh)
			requireSameBits(t, what, got, want)
			if !intact() {
				t.Fatalf("%s: wrote outside dst", what)
			}
		}
	}
}

// TestInterleaveScaledPathsMatch: at every output length 0–70, odd ones
// included, into a dst at an odd offset of a guarded buffer, both paths
// give the same bits and write nothing outside dst.
func TestInterleaveScaledPathsMatch(t *testing.T) {
	kerneltest.ForEachPath(t, HasAVX2(), interleaveScaledPathsMatch)
}

func interleaveScaledPathsMatch(t *testing.T, avx2 bool) {
	r := rand.New(rand.NewSource(74))
	for n := 0; n <= 70; n++ {
		h := 64
		zre, zim := randReal(r, h), randReal(r, h)
		kerneltest.Sprinkle(r, zre)
		kerneltest.Sprinkle(r, zim)
		want := make([]float64, n)
		interleaveScaled(want, zre, zim, h, false)
		got, intact := kerneltest.Guarded(1, n)
		interleaveScaled(got, zre, zim, h, avx2)
		requireSameBits(t, fmt.Sprintf("n=%d", n), got, want)
		if !intact() {
			t.Fatalf("n=%d: wrote outside dst", n)
		}
	}
}

// TestBankStreamPathsMatch: a bank session on either path emits the same
// lag bits, chunk by chunk, as one on the Go path, over a stream with a
// silent stretch (zero-energy windows), a subnormal stretch and a tail
// holding special values. The first block's lags land in guarded rows of
// exactly their length, so a kernel writing past a row shows.
func TestBankStreamPathsMatch(t *testing.T) {
	kerneltest.ForEachPath(t, HasAVX2(), bankStreamPathsMatch)
}

func bankStreamPathsMatch(t *testing.T, avx2 bool) {
	r := rand.New(rand.NewSource(75))
	ms := []*Matcher{NewMatcher(randReal(r, 300)), NewMatcher(randReal(r, 77)), NewMatcher(randReal(r, 1000))}
	for _, b := range []*MatcherBank{NewMatcherBank(ms...), NewMatcherBankLowLatency(ms...)} {
		x := randReal(r, 5*b.block+123)
		for i := b.block; i < b.block+1500; i++ {
			x[i] = 0
		}
		for i := 2 * b.block; i < 2*b.block+700; i++ {
			x[i] = 5e-324 * float64(r.Intn(1000)-500)
		}
		kerneltest.Sprinkle(r, x[4*b.block:])

		want, got := b.stream(false), b.stream(avx2)
		rows := make([]func() bool, len(ms))
		for i := range got.emit {
			g, intact := kerneltest.Guarded(1, b.hop)
			got.emit[i], rows[i] = g[:0], intact
		}
		what := fmt.Sprintf("block %d", b.block)
		requireSameRows(t, what+" first block", got.Feed(x[:b.block]), want.Feed(x[:b.block]))
		for i, intact := range rows {
			if !intact() {
				t.Fatalf("%s: template %d: lags written outside their row", what, i)
			}
		}
		for off := b.block; off < len(x); {
			c := min(1+r.Intn(3*b.hop), len(x)-off)
			requireSameRows(t, fmt.Sprintf("%s chunk at %d", what, off), got.Feed(x[off:off+c]), want.Feed(x[off:off+c]))
			off += c
		}
		requireSameRows(t, what+" flush", got.Flush(), want.Flush())
	}
}

func requireSameRows(t *testing.T, what string, got, want [][]float64) {
	t.Helper()
	for i := range want {
		requireSameBits(t, fmt.Sprintf("%s template %d", what, i), got[i], want[i])
	}
}
