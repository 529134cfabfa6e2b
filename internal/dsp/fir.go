package dsp

// Filter applies FIR taps h to x (causal, zero initial state), returning a
// slice of len(x). Group delay is (len(h)-1)/2 samples for symmetric h.
func Filter(h, x []float64) []float64 {
	out := make([]float64, len(x))
	FilterFrom(out, h, x, 0)
	return out
}

// FilterFrom is the causal direct-form FIR kernel behind Filter and the
// streaming ingest prefilter. It writes the response of h over x, with zero
// state before x[0], at input indices from, from+1, … into dst:
//
//	dst[j] = Σ h[k]·x[from+j−k]   for k = 0 … min(len(h), from+j+1)−1
//
// Summation contract: each output's products h[k]·x[n−k] are added with k
// ascending to an accumulator that starts at +0, one rounded multiply and
// one rounded add per term (no fused multiply-add, no reassociation). A
// caller that carries history across buffers therefore gets the same bits
// as a one-shot Filter over the whole stream. Eight outputs share each
// pass over h, in eight register accumulators, so one load of h[k] feeds
// eight independent multiply-adds; the warm-up outputs whose window
// reaches before x[0], and the remainder after the last full block, run
// one at a time in the same order.
//
// len(x) must be at least from+len(dst).
func FilterFrom(dst, h, x []float64, from int) {
	n := len(dst)
	x = x[:from+n]
	j := 0
	for ; j < n && from+j < len(h)-1; j++ {
		p := from + j
		var s float64
		for k := 0; k <= p; k++ {
			s += h[k] * x[p-k]
		}
		dst[j] = s
	}
	for ; j+8 <= n; j += 8 {
		p := from + j
		var s0, s1, s2, s3, s4, s5, s6, s7 float64
		for k, hk := range h {
			w := (*[8]float64)(x[p-k:])
			s0 += hk * w[0]
			s1 += hk * w[1]
			s2 += hk * w[2]
			s3 += hk * w[3]
			s4 += hk * w[4]
			s5 += hk * w[5]
			s6 += hk * w[6]
			s7 += hk * w[7]
		}
		d := (*[8]float64)(dst[j:])
		d[0], d[1], d[2], d[3], d[4], d[5], d[6], d[7] = s0, s1, s2, s3, s4, s5, s6, s7
	}
	for ; j < n; j++ {
		p := from + j
		var s float64
		for k, hk := range h {
			s += hk * x[p-k]
		}
		dst[j] = s
	}
}
