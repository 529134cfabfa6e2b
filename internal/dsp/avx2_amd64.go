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
