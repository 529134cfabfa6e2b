//go:build !amd64

package channel

func renderBlocksAVX2(dst, sw []float64, rk *[kernelTaps]float64) {
	panic("channel: no AVX2 kernel on this GOARCH")
}
