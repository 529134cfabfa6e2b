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
		{40, 7},    // direct path (short template)
		{513, 100}, // FFT path, odd stream length
		{2000, 200},
		{9000, 1024},
		{300, 300}, // equal lengths: single lag
	} {
		x := randReal(r, tc.nx)
		h := randReal(r, tc.nh)
		mt := NewMatcher(h)
		plain := xcorrDirect(x, h, false)
		got := mt.correlate(x, false, false)
		if len(plain) != len(got) {
			t.Fatalf("nx=%d nh=%d: length %d vs %d", tc.nx, tc.nh, len(got), len(plain))
		}
		for i := range plain {
			if math.Abs(plain[i]-got[i]) > 1e-9 {
				t.Fatalf("nx=%d nh=%d: lag %d: %g vs %g", tc.nx, tc.nh, i, got[i], plain[i])
			}
		}
		pn := refNormalized(x, h)
		gn := mt.correlate(x, true, false)
		for i := range pn {
			if math.Abs(pn[i]-gn[i]) > 1e-9 {
				t.Fatalf("nx=%d nh=%d: normalized lag %d: %g vs %g", tc.nx, tc.nh, i, gn[i], pn[i])
			}
		}
	}
}

func TestMatcherEdgeCases(t *testing.T) {
	mt := NewMatcher([]float64{1, 2, 3})
	if mt.correlate(nil, false, false) != nil {
		t.Error("nil x should give nil")
	}
	if mt.correlate([]float64{1, 2}, false, false) != nil {
		t.Error("x shorter than template should give nil")
	}
	if NewMatcher(nil).correlate([]float64{1, 2}, false, false) != nil {
		t.Error("empty template should give nil")
	}
	if got := mt.correlate(make([]float64, 8), true, false); got == nil {
		t.Error("zero stream should normalize, not vanish")
	} else {
		for _, v := range got {
			if v != 0 {
				t.Errorf("zero-energy window gave %g, want 0", v)
			}
		}
	}
	// Zero-energy template: defined as all-zero output.
	zt := NewMatcher(make([]float64, 4))
	for _, v := range zt.correlate(randReal(rand.New(rand.NewSource(1)), 64), true, false) {
		if v != 0 {
			t.Fatalf("zero template gave %g, want 0", v)
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

func TestMatcherOverlapSaveMatchesOneShot(t *testing.T) {
	// Force the blocked path with a stream long enough that the one-shot
	// padded length exceeds two blocks, then compare against the direct
	// sliding dot product on identical input.
	r := rand.New(rand.NewSource(31))
	h := randReal(r, 256) // blockLen = NextPow2(8*256) = 2048
	mt := NewMatcher(h)
	for _, nx := range []int{6000, 8192, 20000, 65536 - 255} {
		x := randReal(r, nx)
		oneShot := make([]float64, nx-len(h)+1)
		{
			m := NextPow2(nx + len(h) - 1)
			if m <= 2*mt.blockLen() {
				t.Fatalf("nx=%d does not exercise overlap-save (m=%d, block=%d)", nx, m, mt.blockLen())
			}
			copy(oneShot, xcorrDirect(x, h, false))
		}
		got := mt.corrOverlapSave(x, mt.blockLen(), false)
		if len(got) != len(oneShot) {
			t.Fatalf("nx=%d: length %d vs %d", nx, len(got), len(oneShot))
		}
		for i := range got {
			if math.Abs(got[i]-oneShot[i]) > 1e-9 {
				t.Fatalf("nx=%d: lag %d: blocked %g vs direct %g", nx, i, got[i], oneShot[i])
			}
		}
		// The matcher's own path choice must agree too (it picks
		// overlap-save here).
		pub := mt.correlate(x, false, false)
		for i := range pub {
			if math.Abs(pub[i]-oneShot[i]) > 1e-9 {
				t.Fatalf("nx=%d: matcher path lag %d: %g vs %g", nx, i, pub[i], oneShot[i])
			}
		}
	}
}

func TestMatcherPooledVariantsMatch(t *testing.T) {
	r := rand.New(rand.NewSource(32))
	x := randReal(r, 3000)
	h := randReal(r, 128)
	mt := NewMatcher(h)
	for name, pair := range map[string][2][]float64{
		"cross":      {mt.correlate(x, false, false), mt.correlate(x, false, true)},
		"normalized": {mt.correlate(x, true, false), mt.NormalizedCrossCorrelatePooled(x)},
	} {
		plain, pooled := pair[0], pair[1]
		if len(plain) != len(pooled) {
			t.Fatalf("%s: length %d vs %d", name, len(plain), len(pooled))
		}
		for i := range plain {
			if plain[i] != pooled[i] {
				t.Fatalf("%s: lag %d differs: %v vs %v", name, i, plain[i], pooled[i])
			}
		}
		PutF64(pooled)
	}
}

// TestMatcherConcurrentUse shares one matcher across goroutines hitting
// multiple padded lengths at once; under -race this validates the
// spectrum cache's locking and the immutability of published spectra.
func TestMatcherConcurrentUse(t *testing.T) {
	r := rand.New(rand.NewSource(33))
	h := randReal(r, 200)
	mt := NewMatcher(h)
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
			for nx, x := range streams {
				got := mt.correlate(x, true, false)
				for i := range got {
					if math.Abs(got[i]-want[nx][i]) > 1e-9 {
						t.Errorf("nx=%d: concurrent result diverged at lag %d", nx, i)
						return
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
	mt := NewMatcher(randReal(r, 300))
	a := mt.correlate(x, true, false)
	b := mt.correlate(x, true, false)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("lag %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// BenchmarkMatcher correlates a 2 s stream against a preamble-length
// template with the template spectrum precomputed.
func BenchmarkMatcher(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	x := randReal(r, 88200)
	mt := NewMatcher(randReal(r, 9840))
	mt.correlate(x, false, true) // warm the spectrum cache
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		PutF64(mt.correlate(x, false, true))
	}
}

func BenchmarkMatcherNormalized(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	x := randReal(r, 88200)
	mt := NewMatcher(randReal(r, 9840))
	mt.correlate(x, false, true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		PutF64(mt.NormalizedCrossCorrelatePooled(x))
	}
}
