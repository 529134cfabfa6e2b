package dsp

import (
	"maps"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// twoSum is the error-free transformation s+err = a+b (Knuth): s is the
// rounded sum, err the exact rounding error.
func twoSum(a, b float64) (s, err float64) {
	s = a + b
	bv := s - a
	av := s - bv
	return s, (b - bv) + (a - av)
}

// exactAccumulator maintains a Shewchuk expansion — a list of
// nonoverlapping float64 components whose mathematical sum is EXACTLY
// the sum of everything added — giving an exact-summation reference that
// runs at float64 speed instead of big.Float speed.
type exactAccumulator struct {
	e []float64
}

func (a *exactAccumulator) add(b float64) {
	q := b
	out := a.e[:0]
	for _, ei := range a.e {
		var err float64
		q, err = twoSum(q, ei)
		if err != 0 {
			out = append(out, err)
		}
	}
	if q != 0 {
		out = append(out, q)
	}
	a.e = out
}

// value rounds the exact sum to float64, summing components in
// increasing magnitude order (faithful to within 1 ulp).
func (a *exactAccumulator) value() float64 {
	var s float64
	for _, ei := range a.e {
		s += ei
	}
	return s
}

// TestCompensatedEnergyMatchesExact10M is the regression test for the
// Neumaier-compensated energy prefix BankStream normalizes with: on a
// 10^7-sample stream with ~8 decades of dynamic range, the session's
// prefix must stay within a few ulps of an exact reference — where a
// plain running float64 sum drifts by orders of magnitude more. The
// window energies are what every normalized correlation divides by, so
// drift here directly biases late-stream detection scores.
func TestCompensatedEnergyMatchesExact10M(t *testing.T) {
	const n = 10_000_000
	r := rand.New(rand.NewSource(64))
	x := make([]float64, n)
	for i := range x {
		// Wide dynamic range: magnitudes from ~1e-4 to ~1e4, so small
		// squares constantly fall below the running sum's rounding step.
		x[i] = r.NormFloat64() * math.Pow(10, r.Float64()*8-4)
	}

	// Exact reference (error-free Shewchuk expansion) and a plain float64
	// sum for the drift comparison, checked at log-spaced probe points,
	// plus the window edges the second half reads.
	const hlen = 4096
	nOut := 2_000_000
	lags := []int{0, 1, 999_999, nOut - 1}
	probes := map[int]bool{1: true, n: true}
	for p := 10; p < n; p *= 10 {
		probes[p] = true
		probes[p*3] = true
	}
	at := maps.Clone(probes)
	for _, k := range lags {
		at[k], at[k+hlen] = true, true
	}
	positions := slices.Sorted(maps.Keys(at))

	// Feed the stream in audio-buffer-sized chunks that break at each
	// position: the session's prefix entry for everything fed so far,
	// pre[bufLen], is then the compensated Σ x² over x[:position]. The
	// last position is n, so the whole stream goes through the session.
	s := NewMatcherBank(NewMatcher(randReal(r, hlen))).Stream()
	prefix := make(map[int]float64, len(positions))
	prev := 0
	for _, p := range positions {
		for prev < p {
			end := min(p, prev+1<<16)
			s.Feed(x[prev:end])
			prev = end
		}
		prefix[p] = s.pre[s.bufLen]
	}
	s.Flush()

	var exact exactAccumulator
	var plain float64
	var worstComp, worstPlain float64
	for i, v := range x {
		exact.add(v * v)
		plain += v * v
		if probes[i+1] {
			want := exact.value()
			compErr := math.Abs(prefix[i+1]-want) / want
			plainErr := math.Abs(plain-want) / want
			if compErr > worstComp {
				worstComp = compErr
			}
			if plainErr > worstPlain {
				worstPlain = plainErr
			}
			if compErr > 1e-15 {
				t.Fatalf("prefix[%d]: compensated rel err %g exceeds 1e-15", i+1, compErr)
			}
		}
	}
	if worstComp > worstPlain {
		t.Errorf("compensated sum (%g) drifted more than the plain sum (%g)", worstComp, worstPlain)
	}
	t.Logf("worst rel err over %d probes: compensated %.3g, plain %.3g", len(probes), worstComp, worstPlain)

	// The rolling two-accumulator pass of the test oracle
	// normalizeByWindowEnergy must agree with the session's prefix to the
	// same standard: feed it an all-ones correlation so its output
	// exposes the raw window energies.
	ones := make([]float64, nOut)
	for i := range ones {
		ones[i] = 1
	}
	normalizeByWindowEnergy(ones, x, hlen, 1)
	for _, k := range lags {
		ewin := prefix[k+hlen] - prefix[k]
		want := 1 / math.Sqrt(ewin)
		if math.Abs(ones[k]-want) > 1e-12*want {
			t.Fatalf("rolling window energy at lag %d: %g vs prefix-derived %g", k, ones[k], want)
		}
	}
}
