package channel

// renderBlocksAVX2 adds Σ sw[i+m]·rk[m], m ascending, into each dst[i],
// sixteen outputs per pass over rk, with the accumulators loaded from dst.
// len(dst) must be a multiple of 16 and len(sw) = len(dst)+kernelTaps−1.
//
//go:noescape
func renderBlocksAVX2(dst, sw []float64, rk *[kernelTaps]float64)
