package stats

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestMedian(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{[]float64{1, 2, 3}, 2},
		{[]float64{1, 2, 3, 4}, 2.5},
		{[]float64{5}, 5},
		{[]float64{3, 1, 2}, 2}, // unsorted input
	}
	for _, c := range cases {
		if got := Median(c.in); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Median(%v) = %g, want %g", c.in, got, c.want)
		}
	}
	if !math.IsNaN(Median(nil)) {
		t.Error("Median(nil) should be NaN")
	}
}

func TestPercentileEdges(t *testing.T) {
	xs := []float64{10, 20, 30, 40, 50}
	if got := Percentile(xs, 0); got != 10 {
		t.Errorf("P0 = %g", got)
	}
	if got := Percentile(xs, 100); got != 50 {
		t.Errorf("P100 = %g", got)
	}
	if got := Percentile(xs, -5); got != 10 {
		t.Errorf("P(-5) = %g", got)
	}
	if got := Percentile(xs, 105); got != 50 {
		t.Errorf("P(105) = %g", got)
	}
	// Interpolation: P25 of [10..50] = 20.
	if got := Percentile(xs, 25); math.Abs(got-20) > 1e-12 {
		t.Errorf("P25 = %g", got)
	}
	if got := Percentile(xs, 62.5); math.Abs(got-35) > 1e-12 {
		t.Errorf("P62.5 = %g", got)
	}
}

func TestPercentileMonotoneProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		xs := make([]float64, 3+int(uint(seed)%40))
		for i := range xs {
			xs[i] = rng.NormFloat64() * 10
		}
		prev := math.Inf(-1)
		for p := 0.0; p <= 100; p += 7 {
			v := Percentile(xs, p)
			if v < prev-1e-12 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestPercentileDoesNotMutateInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	Percentile(xs, 50)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Error("input mutated")
	}
}

func TestMeanStd(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); math.Abs(got-5) > 1e-12 {
		t.Errorf("Mean = %g", got)
	}
	// Sample std of this classic set is ~2.138.
	if got := Std(xs); math.Abs(got-2.1381) > 1e-3 {
		t.Errorf("Std = %g", got)
	}
	if !math.IsNaN(Mean(nil)) || !math.IsNaN(Std([]float64{1})) {
		t.Error("degenerate inputs should be NaN")
	}
}

func TestCDF(t *testing.T) {
	xs := []float64{3, 1, 2}
	if got := CDFAt(xs, 3); got != 1 {
		t.Errorf("CDFAt(3) = %g", got)
	}
	if got := CDFAt(xs, 2); math.Abs(got-2.0/3) > 1e-12 {
		t.Errorf("CDFAt(2) = %g", got)
	}
	if got := CDFAt(xs, 0.5); got != 0 {
		t.Errorf("CDFAt(0.5) = %g", got)
	}
	if !math.IsNaN(CDFAt(nil, 1)) {
		t.Error("CDFAt(nil) should be NaN")
	}
}

func TestCDFIsSortedProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		xs := make([]float64, 1+int(uint(seed)%30))
		for i := range xs {
			xs[i] = rng.NormFloat64()
		}
		// Evaluated at the sorted samples, the empirical CDF rises
		// monotonically from above 0 to exactly 1.
		probes := append([]float64(nil), xs...)
		sort.Float64s(probes)
		prev := 0.0
		for _, v := range probes {
			c := CDFAt(xs, v)
			if c <= 0 || c < prev {
				return false
			}
			prev = c
		}
		return prev == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestTableFormat(t *testing.T) {
	tab := &Table{
		ID:     "test1",
		Title:  "a test table",
		Paper:  "paper says hi",
		Header: []string{"col-a", "b"},
		Rows:   [][]string{{"1", "long-cell-value"}, {"22"}},
		Notes:  "a note",
	}
	s := tab.Format()
	for _, want := range []string{"test1", "a test table", "paper says hi", "col-a", "long-cell-value", "a note"} {
		if !strings.Contains(s, want) {
			t.Errorf("formatted table missing %q:\n%s", want, s)
		}
	}
	// Missing cells must not panic and columns stay aligned.
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) < 5 {
		t.Errorf("too few lines:\n%s", s)
	}
}

func TestFormatHelpers(t *testing.T) {
	if F(1.234) != "1.23" || F3(1.2345) != "1.234" {
		t.Error("float formatting wrong")
	}
	if F(math.NaN()) != "n/a" || F3(math.NaN()) != "n/a" {
		t.Error("NaN formatting wrong")
	}
}
