package dsp

// useAVX2 is read-only after package initialization. Race builds leave
// it false (raceEnabled).
var useAVX2 = detectAVX2() && !raceEnabled

// detectAVX2 reports AVX2 present and XMM and YMM state enabled by the OS
// (OSXSAVE set and XCR0 bits 1 and 2), the check Go's own runtime makes.
func detectAVX2() bool {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsave, avx = 1 << 27, 1 << 28
	if ecx1&osxsave == 0 || ecx1&avx == 0 {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&(1<<5) != 0
}

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// filterBlocksAVX2 sets dst[i] = Σ h[k]·x[i+len(h)−1−k], k ascending from
// +0, sixteen outputs per pass over h. len(dst) must be a multiple of 16,
// len(h) at least 1 and len(x) = len(dst)+len(h)−1.
//
//go:noescape
func filterBlocksAVX2(dst, h, x []float64)

// radix4StageFwdAVX2, radix4StageInvAVX2 and dif4StageAVX2 run the loops
// of radix4StageFwd, radix4StageInv and dif4Stage over every block of
// re and im, four butterflies at a time. The twiddle planes hold the
// quarter length l, a positive multiple of 4; len(re) must be a multiple
// of 4l and len(im) = len(re).
//
//go:noescape
func radix4StageFwdAVX2(re, im, w1r, w1i, w2r, w2i, w3r, w3i []float64)

//go:noescape
func radix4StageInvAVX2(re, im, w1r, w1i, w2r, w2i, w3r, w3i []float64)

//go:noescape
func dif4StageAVX2(re, im, w1r, w1i, w2r, w2i, w3r, w3i []float64)

// radix4FirstAVX2 runs radix4First's loop four butterflies at a time.
// len(re) must be a multiple of 16 and len(im) = len(re).
//
//go:noescape
func radix4FirstAVX2(re, im []float64, inverse bool)

// normalizeAVX2 runs normalizeWithPrefix's loop for eh != 0 over lanes
// of four: len(r) a multiple of 4, len(lo) = len(hi) = len(r).
//
//go:noescape
func normalizeAVX2(r, lo, hi []float64, eh, eps float64)

// interleaveScaledAVX2 sets dst[2j], dst[2j+1] = zre[j]·s, zim[j]·s:
// len(zre) a multiple of 4, len(zim) = len(zre), len(dst) = 2·len(zre).
//
//go:noescape
func interleaveScaledAVX2(dst, zre, zim []float64, s float64)

// foldPairsAVX2 runs foldSpecMulTo's pair loop four pairs at a time over
// the pairs of ia, a multiple of 4 long; ib and the six pair-aligned
// planes have its length. Every position in ia and ib must index the
// four spectrum planes, which the fold table guarantees for its size.
//
//go:noescape
func foldPairsAVX2(dzre, dzim, zre, zim []float64, ia, ib []int32, wre, wim, are, aim, bre, bim []float64)
