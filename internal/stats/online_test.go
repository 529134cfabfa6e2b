package stats

import (
	"math"
	"math/rand"
	"testing"
)

func TestWelfordMatchesTwoPass(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	xs := make([]float64, 1000)
	var w Welford
	for i := range xs {
		xs[i] = 5 + 2*rng.NormFloat64()
		w.Add(xs[i])
	}
	if w.n != 1000 {
		t.Fatalf("count %d", w.n)
	}
	if m := Mean(xs); math.Abs(w.Mean()-m) > 1e-12 {
		t.Errorf("mean %v vs two-pass %v", w.Mean(), m)
	}
	if sd := Std(xs); math.Abs(w.Std()-sd) > 1e-12 {
		t.Errorf("std %v vs two-pass %v", w.Std(), sd)
	}
}

func TestWelfordDegenerate(t *testing.T) {
	var w Welford
	if !math.IsNaN(w.Mean()) || !math.IsNaN(w.Std()) {
		t.Error("empty accumulator should be NaN")
	}
	w.Add(4)
	if w.Mean() != 4 || !math.IsNaN(w.Std()) {
		t.Errorf("n=1: mean %v std %v", w.Mean(), w.Std())
	}
}

func TestWelfordMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	var all, a, b Welford
	for i := 0; i < 500; i++ {
		v := rng.ExpFloat64()
		all.Add(v)
		if i%2 == 0 {
			a.Add(v)
		} else {
			b.Add(v)
		}
	}
	a.Merge(b)
	if a.n != all.n {
		t.Fatalf("merged count %d vs %d", a.n, all.n)
	}
	if math.Abs(a.Mean()-all.Mean()) > 1e-12 || math.Abs(a.Std()-all.Std()) > 1e-12 {
		t.Errorf("merged mean/std %v/%v vs %v/%v", a.Mean(), a.Std(), all.Mean(), all.Std())
	}
	// Merging into an empty accumulator copies.
	var empty Welford
	empty.Merge(all)
	if empty.Mean() != all.Mean() || empty.n != all.n {
		t.Error("merge into empty should copy")
	}
}

// TestSketchExactModeBitIdentical pins the tentpole's compatibility
// requirement: below capacity, every Sketch summary must match the legacy
// collected-slice path bit for bit.
func TestSketchExactModeBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	s := NewSketchSize(512)
	var xs []float64
	for i := 0; i < 500; i++ {
		v := rng.NormFloat64() * 3
		xs = append(xs, v)
		s.Add(v)
	}
	if !s.Exact() {
		t.Fatal("should still be exact")
	}
	for _, p := range []float64{0, 5, 50, 95, 99, 100} {
		if got, want := s.Quantile(p), Percentile(xs, p); got != want {
			t.Errorf("P%v: sketch %v != exact %v", p, got, want)
		}
	}
	if got, want := s.Mean(), Mean(xs); got != want {
		t.Errorf("mean: sketch %v != exact %v", got, want)
	}
	if got, want := s.Std(), Std(xs); got != want {
		t.Errorf("std: sketch %v != exact %v", got, want)
	}
	vals := s.Values()
	for i, v := range vals {
		if v != xs[i] {
			t.Fatalf("Values()[%d] = %v, want %v (insertion order)", i, v, xs[i])
		}
	}
}

// TestSketchReservoirErrorBound feeds 10k observations through a
// default-capacity sketch and asserts its median/95th estimates diverge
// from the exact values by less than 0.5% — the error budget the
// experiment tables inherit when trial counts exceed the exact threshold.
func TestSketchReservoirErrorBound(t *testing.T) {
	const n = 10000
	rng := rand.New(rand.NewSource(12))
	s := NewSketch()
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = 100 * rng.Float64()
		s.Add(xs[i])
	}
	if s.Exact() {
		t.Fatal("sketch should have left exact mode")
	}
	if len(s.Values()) != DefaultSketchSize {
		t.Fatalf("reservoir size %d", len(s.Values()))
	}
	for _, p := range []float64{50, 95} {
		got := s.Quantile(p)
		want := Percentile(xs, p)
		if rel := math.Abs(got-want) / want; rel > 0.005 {
			t.Errorf("P%v: sketch %v vs exact %v (divergence %.3f%%)", p, got, want, rel*100)
		}
	}
	// Mean/std stay exact (Welford) even past the threshold.
	if m := Mean(xs); math.Abs(s.Mean()-m) > 1e-9 {
		t.Errorf("mean %v vs %v", s.Mean(), m)
	}
	if sd := Std(xs); math.Abs(s.Std()-sd) > 1e-9 {
		t.Errorf("std %v vs %v", s.Std(), sd)
	}
}

// TestSketchDeterministic: identical insertion sequences give identical
// reservoirs (no global randomness).
func TestSketchDeterministic(t *testing.T) {
	feed := func() *Sketch {
		s := NewSketchSize(64)
		rng := rand.New(rand.NewSource(9))
		for i := 0; i < 5000; i++ {
			s.Add(rng.NormFloat64())
		}
		return s
	}
	a, b := feed(), feed()
	av, bv := a.Values(), b.Values()
	for i := range av {
		if av[i] != bv[i] {
			t.Fatalf("reservoirs diverge at %d", i)
		}
	}
	if a.Quantile(50) != b.Quantile(50) {
		t.Error("quantiles diverge")
	}
}

func TestSketchEmpty(t *testing.T) {
	s := NewSketch()
	if !math.IsNaN(s.Quantile(50)) || !math.IsNaN(s.Mean()) {
		t.Error("empty sketch should answer NaN")
	}
	if s.Count() != 0 || len(s.Values()) != 0 {
		t.Error("empty sketch should hold nothing")
	}
}

func TestSummariesMatchesPercentile(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	xs := make([]float64, 333)
	for i := range xs {
		xs[i] = rng.NormFloat64() * 10
	}
	ps := []float64{0, 25, 50, 90, 95, 99, 100}
	got := Summaries(xs, ps...)
	for i, p := range ps {
		if want := Percentile(xs, p); got[i] != want {
			t.Errorf("P%v: Summaries %v != Percentile %v", p, got[i], want)
		}
	}
	for _, v := range Summaries(nil, 50, 95) {
		if !math.IsNaN(v) {
			t.Error("empty input should be NaN")
		}
	}
	// Input must not be mutated (Percentile's contract, inherited).
	ys := []float64{3, 1, 2}
	Summaries(ys, 50)
	if ys[0] != 3 || ys[1] != 1 || ys[2] != 2 {
		t.Error("input mutated")
	}
}

// TestSummariesAllocationRegression pins the sort hoist: asking for three
// percentiles of a 10k-sample series must cost O(1) allocations (one copy
// + one result slice), not three copies as with repeated Percentile calls.
func TestSummariesAllocationRegression(t *testing.T) {
	xs := make([]float64, 10000)
	rng := rand.New(rand.NewSource(2))
	for i := range xs {
		xs[i] = rng.Float64()
	}
	allocs := testing.AllocsPerRun(10, func() {
		Summaries(xs, 50, 95, 99)
	})
	// One defensive copy, one result slice, plus slack for sort internals.
	if allocs > 4 {
		t.Errorf("Summaries allocates %v objects per call, want ≤ 4", allocs)
	}
	perCall := testing.AllocsPerRun(10, func() {
		Percentile(xs, 50)
		Percentile(xs, 95)
		Percentile(xs, 99)
	})
	if allocs >= perCall {
		t.Errorf("Summaries (%v allocs) should beat three Percentile calls (%v)", allocs, perCall)
	}
}
