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

// feedPartition drives a one-template stream session over an arbitrary
// chunk partition of x and returns the concatenated output lags.
func feedPartition(s *BankStream, x []float64, cuts []int) []float64 {
	var out []float64
	prev := 0
	for _, c := range cuts {
		out = append(out, s.Feed(x[prev:c])[0]...)
		prev = c
	}
	out = append(out, s.Feed(x[prev:])[0]...)
	return append(out, s.Flush()[0]...)
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

// TestMatcherBankMatchesSingleScans checks the shared-forward-FFT batch
// scan, at both block sizes, against each member matcher's own one-shot
// normalized correlation.
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
			for _, b := range []*MatcherBank{base, NewMatcherBankLowLatency(base.ms...)} {
				norm := b.NormalizedCrossCorrelateAllPooled(x)
				for i := 0; i < b.Len(); i++ {
					wantNorm := b.Matcher(i).correlate(x, true, false)
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

// TestBankStreamMatchesOneShot checks the streaming session, at both
// block sizes, is bit-identical to the bank's own one-shot scan for
// arbitrary chunk partitions — both run the same absolute block grid.
func TestBankStreamMatchesOneShot(t *testing.T) {
	r := rand.New(rand.NewSource(51))
	base := bankOf(r, 512, 2000, 128)
	for _, b := range []*MatcherBank{base, NewMatcherBankLowLatency(base.ms...)} {
		for _, nx := range []int{500, 5000, 30000} {
			x := randReal(r, nx)
			want := b.NormalizedCrossCorrelateAllPooled(x)
			for trial := 0; trial < 8; trial++ {
				got := make([][]float64, b.Len())
				s := b.Stream()
				collect := func(rows [][]float64) {
					for i, row := range rows {
						got[i] = append(got[i], row...)
					}
				}
				prev := 0
				for _, c := range randomCuts(r, nx) {
					collect(s.Feed(x[prev:c]))
					prev = c
				}
				collect(s.Feed(x[prev:]))
				collect(s.Flush())
				for i := range got {
					if len(got[i]) != len(want[i]) {
						t.Fatalf("block=%d nx=%d t%d: length %d vs %d", b.block, nx, i, len(got[i]), len(want[i]))
					}
					for k := range got[i] {
						if got[i][k] != want[i][k] {
							t.Fatalf("block=%d nx=%d t%d lag %d: stream %v vs one-shot %v", b.block, nx, i, k, got[i][k], want[i][k])
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
// of a lag) the concatenated output of a low-latency session must match
// the matcher's own correlation within 1e-9 per lag, and be bit-identical
// to the single-chunk feed of the same session type.
func TestBankStreamEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(40))
	for _, tc := range []struct{ nx, nh int }{
		{500, 64},
		{2000, 200},
		{9000, 1024},
		{40000, 1024}, // long enough that Matcher itself picks overlap-save
		{300, 300},    // single lag
		{1000, 999},
	} {
		x := randReal(r, tc.nx)
		mt := NewMatcher(randReal(r, tc.nh))
		bank := NewMatcherBankLowLatency(mt)
		wantNorm := mt.correlate(x, true, false)
		oneChunkNorm := feedPartition(bank.Stream(), x, nil)
		if len(oneChunkNorm) != len(wantNorm) {
			t.Fatalf("nx=%d nh=%d: one-chunk length %d, want %d", tc.nx, tc.nh, len(oneChunkNorm), len(wantNorm))
		}
		for i := range wantNorm {
			if math.Abs(wantNorm[i]-oneChunkNorm[i]) > 1e-9 {
				t.Fatalf("nx=%d nh=%d: one-chunk normalized lag %d: %g vs %g", tc.nx, tc.nh, i, oneChunkNorm[i], wantNorm[i])
			}
		}
		for trial := 0; trial < 10; trial++ {
			cuts := randomCuts(r, tc.nx)
			norm := feedPartition(bank.Stream(), x, cuts)
			if len(norm) != len(wantNorm) {
				t.Fatalf("nx=%d nh=%d cuts=%v: length %d, want %d", tc.nx, tc.nh, cuts, len(norm), len(wantNorm))
			}
			for i := range norm {
				// Chunk-partition invariance is exact: same absolute block
				// grid, same transforms, bit for bit.
				if norm[i] != oneChunkNorm[i] {
					t.Fatalf("nx=%d nh=%d cuts=%v: normalized lag %d not bit-identical: %v vs %v", tc.nx, tc.nh, cuts, i, norm[i], oneChunkNorm[i])
				}
			}
		}
	}
}

func TestMatcherBankShortStream(t *testing.T) {
	r := rand.New(rand.NewSource(52))
	b := bankOf(r, 100, 400)
	x := randReal(r, 200) // long enough for template 0 only
	outs := b.NormalizedCrossCorrelateAllPooled(x)
	if len(outs[0]) != 101 {
		t.Fatalf("template 0 got %d lags, want 101", len(outs[0]))
	}
	if outs[1] != nil {
		t.Fatalf("template longer than stream must yield nil, got %d lags", len(outs[1]))
	}
	s := b.Stream()
	s.Feed(x)
	rows := s.Flush()
	if len(rows[0]) != 101 || len(rows[1]) != 0 {
		t.Fatalf("stream rows %d/%d, want 101/0", len(rows[0]), len(rows[1]))
	}
}

// TestBankStreamSampleBySample feeds a low-latency session one sample at
// a time — the most adversarial partition — against the one-shot
// Matcher reference.
func TestBankStreamSampleBySample(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	x := randReal(r, 1200)
	mt := NewMatcher(randReal(r, 100))
	want := mt.correlate(x, true, false)
	s := NewMatcherBankLowLatency(mt).Stream()
	var got []float64
	for i := range x {
		got = append(got, s.Feed(x[i : i+1])[0]...)
	}
	got = append(got, s.Flush()[0]...)
	if len(got) != len(want) {
		t.Fatalf("length %d, want %d", len(got), len(want))
	}
	for i := range got {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Fatalf("lag %d: %g vs %g", i, got[i], want[i])
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

// TestMatcherBankConcurrentSessions mirrors the PR 3 concurrent-table
// tests for the engine-worker shape: one shared bank (shared cached
// template spectra), one independent streaming session per goroutine,
// plus concurrent one-shot scans. Run under -race in CI.
func TestMatcherBankConcurrentSessions(t *testing.T) {
	r := rand.New(rand.NewSource(53))
	b := bankOf(r, 300, 900, 128)
	x := randReal(r, 20000)
	want := b.NormalizedCrossCorrelateAllPooled(x)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if g%2 == 0 {
				got := b.NormalizedCrossCorrelateAllPooled(x)
				for i := range got {
					for k := range got[i] {
						if got[i][k] != want[i][k] {
							t.Errorf("one-shot diverged under concurrency (t%d lag %d)", i, k)
							return
						}
					}
				}
				return
			}
			s := b.Stream()
			got := make([][]float64, b.Len())
			for off := 0; off < len(x); off += 1000 + 37*g {
				end := off + 1000 + 37*g
				if end > len(x) {
					end = len(x)
				}
				for i, row := range s.Feed(x[off:end]) {
					got[i] = append(got[i], row...)
				}
			}
			for i, row := range s.Flush() {
				got[i] = append(got[i], row...)
			}
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
// template through a one-template low-latency bank (compare
// BenchmarkMatcher for the one-shot cost).
func BenchmarkBankStream(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	x := randReal(r, 88200)
	mt := NewMatcher(randReal(r, 9840))
	PutF64(mt.correlate(x, false, true)) // warm the spectrum cache
	bank := NewMatcherBankLowLatency(mt)
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

// BenchmarkMatcherBank3 scans a 2 s stream for three preamble-scale
// templates in one bank pass; BenchmarkMatcherBank3Separate is the same
// work as three independent matcher scans. The bank must come in
// measurably under 3× a single scan (one shared forward transform per
// block instead of three).
func BenchmarkMatcherBank3(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	x := randReal(r, 88200)
	bank := bankOf(r, 9840, 9840, 2048)
	for _, row := range bank.NormalizedCrossCorrelateAllPooled(x) {
		PutF64(row) // warm spectra
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, row := range bank.NormalizedCrossCorrelateAllPooled(x) {
			PutF64(row)
		}
	}
}

func BenchmarkMatcherBank3Separate(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	x := randReal(r, 88200)
	bank := bankOf(r, 9840, 9840, 2048)
	for i := 0; i < bank.Len(); i++ {
		PutF64(bank.Matcher(i).NormalizedCrossCorrelatePooled(x)) // warm spectra
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := 0; k < bank.Len(); k++ {
			PutF64(bank.Matcher(k).NormalizedCrossCorrelatePooled(x))
		}
	}
}
