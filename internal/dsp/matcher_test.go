package dsp

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

func TestMatcherMatchesOneShotCorrelation(t *testing.T) {
	r := rand.New(rand.NewSource(30))
	for _, tc := range []struct{ nx, nh int }{
		{40, 7},    // short template
		{513, 100}, // odd stream length
		{2000, 200},
		{9000, 1024},
		{300, 300}, // equal lengths: single lag
	} {
		x := randReal(r, tc.nx)
		h := randReal(r, tc.nh)
		pn := refNormalized(x, h)
		for _, b := range bothGrids(NewMatcher(h)) {
			gn := scanParts(b, x, nil)[0]
			if len(pn) != len(gn) {
				t.Fatalf("nx=%d nh=%d block=%d: length %d vs %d", tc.nx, tc.nh, b.block, len(gn), len(pn))
			}
			for i := range pn {
				if math.Abs(pn[i]-gn[i]) > 1e-9 {
					t.Fatalf("nx=%d nh=%d block=%d: normalized lag %d: %g vs %g", tc.nx, tc.nh, b.block, i, gn[i], pn[i])
				}
			}
		}
	}
}

func TestMatcherEdgeCases(t *testing.T) {
	for _, b := range bothGrids(NewMatcher([]float64{1, 2, 3})) {
		if got := scanParts(b, nil, nil)[0]; len(got) != 0 {
			t.Errorf("block=%d: nil x gave %d lags, want none", b.block, len(got))
		}
		if got := scanParts(b, []float64{1, 2}, nil)[0]; len(got) != 0 {
			t.Errorf("block=%d: x shorter than template gave %d lags, want none", b.block, len(got))
		}
		got := scanParts(b, make([]float64, 8), nil)[0]
		if len(got) != 6 {
			t.Errorf("block=%d: zero stream gave %d lags, want 6: it should normalize, not vanish", b.block, len(got))
		}
		for _, v := range got {
			if v != 0 {
				t.Errorf("block=%d: zero-energy window gave %g, want 0", b.block, v)
			}
		}
	}
	// Zero-energy template: defined as all-zero output.
	for _, b := range bothGrids(NewMatcher(make([]float64, 4))) {
		for _, v := range scanParts(b, randReal(rand.New(rand.NewSource(1)), 64), nil)[0] {
			if v != 0 {
				t.Fatalf("block=%d: zero template gave %g, want 0", b.block, v)
			}
		}
	}
}

func TestMatcherTemplateIsACopy(t *testing.T) {
	h := []float64{1, 2, 3, 4}
	mt := NewMatcher(h)
	h[0] = 99
	if mt.Template()[0] != 1 {
		t.Fatal("matcher must copy the template at construction")
	}
}

// TestMatcherConcurrentUse shares one matcher across goroutines whose
// sessions hit four block lengths at once; under -race this validates
// the spectrum cache's locking and the immutability of published
// spectra.
func TestMatcherConcurrentUse(t *testing.T) {
	r := rand.New(rand.NewSource(33))
	h := randReal(r, 200)
	mt := NewMatcher(h)
	// Blocks 2048 and 512 for mt alone; a 500-tap partner lifts them to
	// 4096 and 1024.
	banks := append(bothGrids(mt), bothGrids(mt, NewMatcher(randReal(r, 500)))...)
	want := map[int][]float64{}
	streams := map[int][]float64{}
	for _, nx := range []int{500, 1000, 2000, 4000} {
		x := randReal(r, nx)
		streams[nx] = x
		want[nx] = refNormalized(x, h)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, b := range banks {
				for nx, x := range streams {
					got := scanParts(b, x, nil)[0]
					for i := range got {
						if math.Abs(got[i]-want[nx][i]) > 1e-9 {
							t.Errorf("nx=%d block=%d: concurrent result diverged at lag %d", nx, b.block, i)
							return
						}
					}
				}
			}
		}()
	}
	wg.Wait()
}

func TestMatcherDeterministicAcrossCalls(t *testing.T) {
	// Same input must give bit-identical output on every call (the engine's
	// determinism contract relies on it).
	r := rand.New(rand.NewSource(34))
	x := randReal(r, 5000)
	for _, b := range bothGrids(NewMatcher(randReal(r, 300))) {
		a := scanParts(b, x, nil)[0]
		c := scanParts(b, x, nil)[0]
		for i := range a {
			if a[i] != c[i] {
				t.Fatalf("block=%d lag %d: %v vs %v", b.block, i, a[i], c[i])
			}
		}
	}
}
