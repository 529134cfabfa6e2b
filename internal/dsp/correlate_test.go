package dsp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCrossCorrelateFindsEmbeddedTemplate(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	h := make([]float64, 200)
	for i := range h {
		h[i] = r.NormFloat64()
	}
	x := make([]float64, 2000)
	for i := range x {
		x[i] = 0.01 * r.NormFloat64()
	}
	const at = 700
	for i, v := range h {
		x[at+i] += v
	}
	for _, b := range bothGrids(NewMatcher(h)) {
		idx, _ := Max(scanParts(b, x, nil)[0])
		if idx != at {
			t.Fatalf("block=%d: peak at %d, want %d", b.block, idx, at)
		}
	}
}

// TestCrossCorrelateDirectEqualsFFT pins the FFT scan to the direct
// sliding dot product: the one-chunk feed of either block grid matches
// the direct normalized reference lag for lag.
func TestCrossCorrelateDirectEqualsFFT(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	x := make([]float64, 513)
	for i := range x {
		x[i] = r.NormFloat64()
	}
	h := make([]float64, 100)
	for i := range h {
		h[i] = r.NormFloat64()
	}
	slow := refNormalized(x, h)
	for _, b := range bothGrids(NewMatcher(h)) {
		fast := scanParts(b, x, nil)[0]
		if len(fast) != len(slow) {
			t.Fatalf("block=%d: length mismatch %d vs %d", b.block, len(fast), len(slow))
		}
		for i := range fast {
			if math.Abs(fast[i]-slow[i]) > 1e-9 {
				t.Fatalf("block=%d: mismatch at %d: %g vs %g", b.block, i, fast[i], slow[i])
			}
		}
	}
}

func TestCrossCorrelateEdgeCases(t *testing.T) {
	for _, b := range bothGrids(NewMatcher([]float64{1, 2, 3})) {
		if got := scanParts(b, nil, nil)[0]; len(got) != 0 {
			t.Errorf("block=%d: empty x gave %d lags, want none", b.block, len(got))
		}
		if got := scanParts(b, []float64{1, 2}, nil)[0]; len(got) != 0 {
			t.Errorf("block=%d: h longer than x gave %d lags, want none", b.block, len(got))
		}
		got := scanParts(b, []float64{1, 2, 3}, nil)[0]
		if len(got) != 1 || math.Abs(got[0]-1) > 1e-12 {
			t.Errorf("block=%d: equal-length correlation = %v, want [1]", b.block, got)
		}
	}
}

func TestNormalizedCrossCorrelateBounds(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		x := make([]float64, 400)
		for i := range x {
			x[i] = r.NormFloat64()
		}
		h := make([]float64, 80)
		for i := range h {
			h[i] = r.NormFloat64()
		}
		for _, b := range bothGrids(NewMatcher(h)) {
			for _, v := range scanParts(b, x, nil)[0] {
				if v > 1+1e-9 || v < -1-1e-9 || math.IsNaN(v) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestNormalizedCrossCorrelatePerfectMatchIsOne(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	h := make([]float64, 128)
	for i := range h {
		h[i] = r.NormFloat64()
	}
	x := make([]float64, 512)
	copy(x[200:], h)
	banks := bothGrids(NewMatcher(h))
	for _, b := range banks {
		if corr := scanParts(b, x, nil)[0]; math.Abs(corr[200]-1) > 1e-9 {
			t.Fatalf("block=%d: exact match correlation = %g, want 1", b.block, corr[200])
		}
	}
	// Scaling x must not change the normalized value.
	for i := range x {
		x[i] *= 37.5
	}
	for _, b := range banks {
		if corr := scanParts(b, x, nil)[0]; math.Abs(corr[200]-1) > 1e-9 {
			t.Fatalf("block=%d: scaled match correlation = %g, want 1", b.block, corr[200])
		}
	}
}

func TestNormalizedCrossCorrelateZeroWindow(t *testing.T) {
	x := make([]float64, 100) // all zeros
	h := []float64{1, -1, 1}
	for _, b := range bothGrids(NewMatcher(h)) {
		for _, v := range scanParts(b, x, nil)[0] {
			if v != 0 {
				t.Fatalf("block=%d: zero-energy window gave %g, want 0", b.block, v)
			}
		}
	}
	// Zero-energy template.
	x[3] = 1
	for _, b := range bothGrids(NewMatcher(make([]float64, 4))) {
		for _, v := range scanParts(b, x, nil)[0] {
			if v != 0 {
				t.Fatalf("block=%d: zero template gave %g, want 0", b.block, v)
			}
		}
	}
}

func TestSegmentCorrelation(t *testing.T) {
	a := []float64{1, 2, 3, 4}
	if got := SegmentCorrelation(a, a); math.Abs(got-1) > 1e-12 {
		t.Errorf("self correlation = %g, want 1", got)
	}
	neg := []float64{-1, -2, -3, -4}
	if got := SegmentCorrelation(a, neg); math.Abs(got+1) > 1e-12 {
		t.Errorf("anti correlation = %g, want -1", got)
	}
	if got := SegmentCorrelation(a, []float64{1, 2}); got != 0 {
		t.Errorf("length mismatch should give 0, got %g", got)
	}
	if got := SegmentCorrelation(a, make([]float64, 4)); got != 0 {
		t.Errorf("zero-energy should give 0, got %g", got)
	}
}

func TestCorrelationShiftProperty(t *testing.T) {
	// Shifting the embedded template shifts the correlation peak equally.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		h := make([]float64, 64)
		for i := range h {
			h[i] = r.NormFloat64()
		}
		shift := int(uint(seed) % 500)
		x := make([]float64, 700)
		copy(x[shift:], h)
		for _, b := range bothGrids(NewMatcher(h)) {
			if idx, _ := Max(scanParts(b, x, nil)[0]); idx != shift {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// bothGrids returns banks over ms on the two block grids the program
// scans with: throughput (osBlockFactor) and low latency
// (streamBlockFactor).
func bothGrids(ms ...*Matcher) []*MatcherBank {
	return []*MatcherBank{NewMatcherBank(ms...), NewMatcherBankLowLatency(ms...)}
}

// scanParts feeds x to a fresh session of b, cut at the given chunk
// boundaries (nil: the whole stream in one Feed), and returns every
// template's concatenated lags, copied out of the session.
func scanParts(b *MatcherBank, x []float64, cuts []int) [][]float64 {
	s := b.Stream()
	out := make([][]float64, b.Len())
	collect := func(rows [][]float64) {
		for i, row := range rows {
			out[i] = append(out[i], row...)
		}
	}
	prev := 0
	for _, c := range cuts {
		collect(s.Feed(x[prev:c]))
		prev = c
	}
	collect(s.Feed(x[prev:]))
	collect(s.Flush())
	return out
}

// refNormalized is the reference normalized correlation the FFT scan is
// checked against: the direct sliding dot product, divided by the
// window and template energies.
func refNormalized(x, h []float64) []float64 {
	r := xcorrDirect(x, h)
	var eh float64
	for _, v := range h {
		eh += v * v
	}
	normalizeByWindowEnergy(r, x, len(h), eh)
	return r
}

// xcorrDirect is the O(len(x)·len(h)) sliding dot product over the valid
// lags, r[k] = Σ_n x[n+k]·h[n] for k in [0, len(x)-len(h)].
func xcorrDirect(x, h []float64) []float64 {
	n := len(x) - len(h) + 1
	out := make([]float64, n)
	for k := 0; k < n; k++ {
		var s float64
		for n2, hv := range h {
			s += x[k+n2] * hv
		}
		out[k] = s
	}
	return out
}

// normalizeByWindowEnergy divides each correlation lag by
// sqrt(E_window · eh): the sliding window energy of x times the template
// energy, in a single rolling pass — two Neumaier-compensated running
// sums one window apart stand in for a stored prefix array, so window
// energies stay accurate to rounding however long the stream is.
// Windows of (near-)zero energy yield 0.
func normalizeByWindowEnergy(r, x []float64, hlen int, eh float64) {
	if r == nil {
		return
	}
	if eh == 0 {
		for i := range r {
			r[i] = 0
		}
		return
	}
	const eps = 1e-30
	var hiS, hiC, loS, loC float64 // leading/trailing edge sums + compensations
	for _, v := range x[:hlen] {
		hiS, hiC = neumaierAdd(hiS, hiC, v*v)
	}
	for k := range r {
		ex := (hiS + hiC) - (loS + loC)
		den := math.Sqrt(ex * eh)
		if den < eps {
			r[k] = 0
		} else {
			r[k] /= den
		}
		if next := k + hlen; next < len(x) {
			hiS, hiC = neumaierAdd(hiS, hiC, x[next]*x[next])
		}
		loS, loC = neumaierAdd(loS, loC, x[k]*x[k])
	}
}
