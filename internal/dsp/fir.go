package dsp

// FilterFrom is the causal direct-form FIR kernel behind the streaming
// ingest prefilter. It writes the response of h over x, with zero
// state before x[0], at input indices from, from+1, … into dst:
//
//	dst[j] = Σ h[k]·x[from+j−k]   for k = 0 … min(len(h), from+j+1)−1
//
// Summation contract: each output's products h[k]·x[n−k] are added with k
// ascending to an accumulator that starts at +0, one rounded multiply and
// one rounded add per term (no fused multiply-add, no reassociation; the
// float64 conversion around each product is the language's barrier
// against fusion, which Go otherwise applies to s += a*b on arm64). A
// caller that carries history across buffers therefore gets the same bits
// as one FilterFrom call over the whole stream. Eight outputs share each
// pass over h, in eight register accumulators, so one load of h[k] feeds
// eight independent multiply-adds; on a CPU with AVX2 (HasAVX2) sixteen
// do, four to a YMM register, each lane repeating the scalar order. The
// warm-up outputs whose window reaches before x[0], and the remainder
// after the last full block, run one at a time in the same order.
//
// len(x) must be at least from+len(dst).
func FilterFrom(dst, h, x []float64, from int) {
	filterFrom(dst, h, x, from, useAVX2)
}

// HasAVX2 reports whether FilterFrom and channel.Render run their full
// blocks in AVX2 assembly: the CPU has AVX2, the OS saves the YMM
// registers, and the binary is not a race build, whose detector would
// not see the assembly's memory accesses. It is fixed at start-up.
func HasAVX2() bool { return useAVX2 }

// filterFrom is FilterFrom with the block path chosen by the caller:
// avx2 runs the full 16-output blocks in assembly, and must be false
// where HasAVX2 is.
func filterFrom(dst, h, x []float64, from int, avx2 bool) {
	n := len(dst)
	x = x[:from+n]
	j := 0
	for ; j < n && from+j < len(h)-1; j++ {
		p := from + j
		var s float64
		for k := 0; k <= p; k++ {
			s += float64(h[k] * x[p-k])
		}
		dst[j] = s
	}
	// The kernel's tap loop runs at least once, so it never sees an empty h.
	if m := (n - j) &^ 15; avx2 && m > 0 && len(h) > 0 {
		p := from + j
		filterBlocksAVX2(dst[j:j+m], h, x[p-len(h)+1:p+m])
		j += m
	}
	for ; j+8 <= n; j += 8 {
		p := from + j
		var s0, s1, s2, s3, s4, s5, s6, s7 float64
		for k, hk := range h {
			w := (*[8]float64)(x[p-k:])
			s0 += float64(hk * w[0])
			s1 += float64(hk * w[1])
			s2 += float64(hk * w[2])
			s3 += float64(hk * w[3])
			s4 += float64(hk * w[4])
			s5 += float64(hk * w[5])
			s6 += float64(hk * w[6])
			s7 += float64(hk * w[7])
		}
		d := (*[8]float64)(dst[j:])
		d[0], d[1], d[2], d[3], d[4], d[5], d[6], d[7] = s0, s1, s2, s3, s4, s5, s6, s7
	}
	for ; j < n; j++ {
		p := from + j
		var s float64
		for k, hk := range h {
			s += float64(hk * x[p-k])
		}
		dst[j] = s
	}
}
