//go:build !amd64

package dsp

const useAVX2 = false

func filterBlocksAVX2(dst, h, x []float64) { panic("dsp: no AVX2 kernel on this GOARCH") }
