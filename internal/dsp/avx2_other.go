//go:build !amd64

package dsp

const useAVX2 = false

func filterBlocksAVX2(dst, h, x []float64) { panic("dsp: no AVX2 kernel on this GOARCH") }

func radix4StageFwdAVX2(re, im, w1r, w1i, w2r, w2i, w3r, w3i []float64) {
	panic("dsp: no AVX2 kernel on this GOARCH")
}

func radix4StageInvAVX2(re, im, w1r, w1i, w2r, w2i, w3r, w3i []float64) {
	panic("dsp: no AVX2 kernel on this GOARCH")
}

func dif4StageAVX2(re, im, w1r, w1i, w2r, w2i, w3r, w3i []float64) {
	panic("dsp: no AVX2 kernel on this GOARCH")
}

func radix4FirstAVX2(re, im []float64, inverse bool) { panic("dsp: no AVX2 kernel on this GOARCH") }

func normalizeAVX2(r, lo, hi []float64, eh, eps float64) {
	panic("dsp: no AVX2 kernel on this GOARCH")
}

func interleaveScaledAVX2(dst, zre, zim []float64, s float64) {
	panic("dsp: no AVX2 kernel on this GOARCH")
}

func foldPairsAVX2(dzre, dzim, zre, zim []float64, ia, ib []int32, wre, wim, are, aim, bre, bim []float64) {
	panic("dsp: no AVX2 kernel on this GOARCH")
}
