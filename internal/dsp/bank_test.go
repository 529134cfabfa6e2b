package dsp

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

func bankOf(r *rand.Rand, lens ...int) *MatcherBank {
	ms := make([]*Matcher, len(lens))
	for i, n := range lens {
		ms[i] = NewMatcher(randReal(r, n))
	}
	return NewMatcherBank(ms...)
}

// randomCuts draws a sorted set of chunk boundaries in [0, n], including
// degenerate empty chunks with some probability.
func randomCuts(r *rand.Rand, n int) []int {
	k := r.Intn(8)
	cuts := make([]int, 0, k)
	for i := 0; i < k; i++ {
		cuts = append(cuts, r.Intn(n+1))
	}
	slices.Sort(cuts)
	return cuts
}

// TestMatcherBankMatchesSingleScans checks the shared-forward-FFT scan,
// fed the whole stream in one chunk at both block sizes, against each
// member template's direct normalized correlation.
func TestMatcherBankMatchesSingleScans(t *testing.T) {
	r := rand.New(rand.NewSource(50))
	for _, lens := range [][]int{
		{256, 256, 256},
		{2048, 1000, 300},
		{100, 9840, 2048},
		{700},
	} {
		base := bankOf(r, lens...)
		for _, nx := range []int{12000, 40000} {
			x := randReal(r, nx)
			want := make([][]float64, base.Len())
			for i := range want {
				want[i] = refNormalized(x, base.Matcher(i).Template())
			}
			for _, b := range bothGrids(base.ms...) {
				norm := scanParts(b, x, nil)
				for i, wantNorm := range want {
					if len(norm[i]) != len(wantNorm) {
						t.Fatalf("lens=%v nx=%d block=%d t%d: length %d vs %d", lens, nx, b.block, i, len(norm[i]), len(wantNorm))
					}
					for k := range wantNorm {
						if math.Abs(norm[i][k]-wantNorm[k]) > 1e-9 {
							t.Fatalf("lens=%v nx=%d block=%d t%d: normalized lag %d: %g vs %g", lens, nx, b.block, i, k, norm[i][k], wantNorm[k])
						}
					}
				}
			}
		}
	}
}

// TestBankStreamMatchesOneShot checks that every chunk partition of a
// session, at both block sizes, is bit-identical to the one-chunk feed —
// both run the same absolute block grid.
func TestBankStreamMatchesOneShot(t *testing.T) {
	r := rand.New(rand.NewSource(51))
	for _, b := range bothGrids(bankOf(r, 512, 2000, 128).ms...) {
		for _, nx := range []int{500, 5000, 30000} {
			x := randReal(r, nx)
			want := scanParts(b, x, nil)
			for trial := 0; trial < 8; trial++ {
				got := scanParts(b, x, randomCuts(r, nx))
				for i := range got {
					if len(got[i]) != len(want[i]) {
						t.Fatalf("block=%d nx=%d t%d: length %d vs %d", b.block, nx, i, len(got[i]), len(want[i]))
					}
					for k := range got[i] {
						if got[i][k] != want[i][k] {
							t.Fatalf("block=%d nx=%d t%d lag %d: chunked %v vs one-chunk %v", b.block, nx, i, k, got[i][k], want[i][k])
						}
					}
				}
			}
		}
	}
}

// TestBankStreamEquivalence is the one-template half of the streaming
// equivalence harness: over randomized chunk partitions (sizes from 0 to
// whole-stream, boundaries anywhere — including inside the template span
// of a lag) the concatenated output of a session must match the direct
// normalized correlation within 1e-9 per lag, and be bit-identical to the
// single-chunk feed of the same bank, at both block sizes.
func TestBankStreamEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(40))
	for _, tc := range []struct{ nx, nh int }{
		{500, 64},
		{2000, 200},
		{9000, 1024},
		{40000, 1024}, // many blocks on either grid
		{300, 300},    // single lag
		{1000, 999},
	} {
		x := randReal(r, tc.nx)
		h := randReal(r, tc.nh)
		wantNorm := refNormalized(x, h)
		for _, bank := range bothGrids(NewMatcher(h)) {
			oneChunkNorm := scanParts(bank, x, nil)[0]
			if len(oneChunkNorm) != len(wantNorm) {
				t.Fatalf("nx=%d nh=%d block=%d: one-chunk length %d, want %d", tc.nx, tc.nh, bank.block, len(oneChunkNorm), len(wantNorm))
			}
			for i := range wantNorm {
				if math.Abs(wantNorm[i]-oneChunkNorm[i]) > 1e-9 {
					t.Fatalf("nx=%d nh=%d block=%d: one-chunk normalized lag %d: %g vs %g", tc.nx, tc.nh, bank.block, i, oneChunkNorm[i], wantNorm[i])
				}
			}
			for trial := 0; trial < 10; trial++ {
				cuts := randomCuts(r, tc.nx)
				norm := scanParts(bank, x, cuts)[0]
				if len(norm) != len(wantNorm) {
					t.Fatalf("nx=%d nh=%d block=%d cuts=%v: length %d, want %d", tc.nx, tc.nh, bank.block, cuts, len(norm), len(wantNorm))
				}
				for i := range norm {
					// Chunk-partition invariance is exact: same absolute block
					// grid, same transforms, bit for bit.
					if norm[i] != oneChunkNorm[i] {
						t.Fatalf("nx=%d nh=%d block=%d cuts=%v: normalized lag %d not bit-identical: %v vs %v", tc.nx, tc.nh, bank.block, cuts, i, norm[i], oneChunkNorm[i])
					}
				}
			}
		}
	}
}

func TestMatcherBankShortStream(t *testing.T) {
	r := rand.New(rand.NewSource(52))
	b := bankOf(r, 100, 400)
	x := randReal(r, 200) // long enough for template 0 only
	want := scanParts(b, x, nil)
	if len(want[0]) != 101 || len(want[1]) != 0 {
		t.Fatalf("one-chunk rows %d/%d, want 101/0", len(want[0]), len(want[1]))
	}
	for trial := 0; trial < 8; trial++ {
		got := scanParts(b, x, randomCuts(r, len(x)))
		if len(got[0]) != 101 || len(got[1]) != 0 {
			t.Fatalf("chunked rows %d/%d, want 101/0", len(got[0]), len(got[1]))
		}
		for k := range got[0] {
			if got[0][k] != want[0][k] {
				t.Fatalf("lag %d: chunked %v vs one-chunk %v", k, got[0][k], want[0][k])
			}
		}
	}
}

// TestBankStreamSampleBySample feeds a session one sample at a time —
// the most adversarial partition — at both block sizes, against the
// direct normalized reference.
func TestBankStreamSampleBySample(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	x := randReal(r, 1200)
	h := randReal(r, 100)
	want := refNormalized(x, h)
	cuts := make([]int, len(x))
	for i := range cuts {
		cuts[i] = i + 1
	}
	for _, b := range bothGrids(NewMatcher(h)) {
		got := scanParts(b, x, cuts)[0]
		if len(got) != len(want) {
			t.Fatalf("block=%d: length %d, want %d", b.block, len(got), len(want))
		}
		for i := range got {
			if math.Abs(got[i]-want[i]) > 1e-9 {
				t.Fatalf("block=%d lag %d: %g vs %g", b.block, i, got[i], want[i])
			}
		}
	}
}

func TestBankStreamShortStream(t *testing.T) {
	bank := NewMatcherBankLowLatency(NewMatcher(randReal(rand.New(rand.NewSource(42)), 128)))
	s := bank.Stream()
	if got := s.Feed(make([]float64, 64))[0]; len(got) != 0 {
		t.Fatalf("emitted %d lags before the template span filled", len(got))
	}
	if got := s.Flush()[0]; len(got) != 0 {
		t.Fatalf("stream shorter than template flushed %d lags, want 0", len(got))
	}
	// Exactly template length: one lag.
	s2 := bank.Stream()
	s2.Feed(randReal(rand.New(rand.NewSource(43)), 128))
	if got := s2.Flush()[0]; len(got) != 1 {
		t.Fatalf("template-length stream flushed %d lags, want 1", len(got))
	}
}

func TestBankStreamFeedAfterFlushPanics(t *testing.T) {
	s := NewMatcherBankLowLatency(NewMatcher([]float64{1, 2, 3})).Stream()
	s.Flush()
	defer func() {
		if recover() == nil {
			t.Fatal("Feed after Flush must panic")
		}
	}()
	s.Feed([]float64{1})
}

func TestMatcherBankPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"empty bank":     func() { NewMatcherBank() },
		"empty template": func() { NewMatcherBank(NewMatcher(nil)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s must panic", name)
				}
			}()
			fn()
		}()
	}
}

// TestMatcherBankConcurrentSessions mirrors the concurrent-table tests
// for the engine-worker shape: one shared bank (shared cached template
// spectra), one independent session per goroutine, half of them fed the
// whole stream in one chunk and half in ragged chunks. Run under -race
// in CI.
func TestMatcherBankConcurrentSessions(t *testing.T) {
	r := rand.New(rand.NewSource(53))
	b := bankOf(r, 300, 900, 128)
	x := randReal(r, 20000)
	want := scanParts(b, x, nil)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var cuts []int
			if g%2 == 1 {
				for c := 1000 + 37*g; c < len(x); c += 1000 + 37*g {
					cuts = append(cuts, c)
				}
			}
			got := scanParts(b, x, cuts)
			for i := range got {
				if len(got[i]) != len(want[i]) {
					t.Errorf("session %d: t%d length %d vs %d", g, i, len(got[i]), len(want[i]))
					return
				}
				for k := range got[i] {
					if got[i][k] != want[i][k] {
						t.Errorf("session %d diverged (t%d lag %d)", g, i, k)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// BenchmarkBankStream measures the chunked path on the detector's shape:
// a 2 s stream in 4096-sample buffers against the preamble-length
// template through a one-template low-latency bank.
func BenchmarkBankStream(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	x := randReal(r, 88200)
	bank := NewMatcherBankLowLatency(NewMatcher(randReal(r, 9840)))
	scanParts(bank, x, nil) // warm the spectrum cache
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := bank.Stream()
		for off := 0; off < len(x); off += 4096 {
			s.Feed(x[off:min(off+4096, len(x))])
		}
		s.Flush()
	}
}

// scanWhole feeds x to one session of b in a single chunk, discarding
// the lags.
func scanWhole(b *MatcherBank, x []float64) {
	s := b.Stream()
	s.Feed(x)
	s.Flush()
}

// BenchmarkMatcherBank3 scans a 2 s stream for three preamble-scale
// templates in one bank session fed the whole stream;
// BenchmarkMatcherBank3Separate is the same work as three one-template
// sessions. The bank must come in measurably under 3× a single scan (one
// shared forward transform per block instead of three).
func BenchmarkMatcherBank3(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	x := randReal(r, 88200)
	bank := bankOf(r, 9840, 9840, 2048)
	scanWhole(bank, x) // warm spectra
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scanWhole(bank, x)
	}
}

func BenchmarkMatcherBank3Separate(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	x := randReal(r, 88200)
	bank := bankOf(r, 9840, 9840, 2048)
	singles := make([]*MatcherBank, bank.Len())
	for i := range singles {
		singles[i] = NewMatcherBank(bank.Matcher(i))
		scanWhole(singles[i], x) // warm spectra
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, single := range singles {
			scanWhole(single, x)
		}
	}
}
