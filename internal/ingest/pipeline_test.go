package ingest_test

import (
	"math"
	"math/rand"
	"testing"

	"uwpos/internal/dsp"
	"uwpos/internal/ingest"
	"uwpos/internal/ranging"
	"uwpos/internal/sig"
)

// noiseStream returns a deterministic pseudo-random stream.
func noiseStream(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	return x
}

// testBank builds a three-template bank (two chirps and a short tone
// burst of distinct lengths) — the shared-scan shape of a real round.
func testBank(fs float64) *dsp.MatcherBank {
	t0 := sig.LinearChirp(1000, 5000, 2048, fs)
	t1 := sig.LinearChirp(5000, 1000, 1536, fs)
	t2 := sig.LinearChirp(2000, 2000, 512, fs)
	return dsp.NewMatcherBank(dsp.NewMatcher(t0), dsp.NewMatcher(t1), dsp.NewMatcher(t2))
}

// scanOneChunk feeds the whole stream to one bank session in a single
// chunk and returns every template's lags, copied out of the session:
// the reference every buffer partition must reproduce bit for bit.
func scanOneChunk(bank *dsp.MatcherBank, stream []float64) [][]float64 {
	s := bank.Stream()
	rows := make([][]float64, bank.Len())
	for i, row := range s.Feed(stream) {
		rows[i] = append(rows[i], row...)
	}
	for i, row := range s.Flush() {
		rows[i] = append(rows[i], row...)
	}
	return rows
}

// feedPartition pushes stream through the pipeline cut at the given
// boundaries, then closes it.
func feedPartition(p *ingest.Pipeline, stream []float64, cuts []int) {
	prev := 0
	for _, c := range cuts {
		p.Push(stream[prev:c])
		prev = c
	}
	p.Push(stream[prev:])
	p.Close()
}

// randomCuts returns sorted cut points over [0, n] including degenerate
// (empty-chunk) repeats.
func randomCuts(rng *rand.Rand, n, k int) []int {
	cuts := make([]int, k)
	for i := range cuts {
		cuts[i] = rng.Intn(n + 1)
	}
	for i := 1; i < len(cuts); i++ {
		for j := i; j > 0 && cuts[j] < cuts[j-1]; j-- {
			cuts[j], cuts[j-1] = cuts[j-1], cuts[j]
		}
	}
	return cuts
}

// TestPipelineMatchesOneShot: for any buffer partition, every template's
// collected correlation is bit-identical to the one-chunk bank scan.
func TestPipelineMatchesOneShot(t *testing.T) {
	const fs = 44100.0
	bank := testBank(fs)
	stream := noiseStream(30000, 11)
	copy(stream[4000:], bank.Matcher(0).Template())
	copy(stream[12000:], bank.Matcher(1).Template())
	rng := rand.New(rand.NewSource(7))
	want := scanOneChunk(bank, stream)
	for trial := 0; trial < 8; trial++ {
		pipe := ingest.New(ingest.Config{Bank: bank})
		cols := make([]*ingest.Collect, bank.Len())
		for i := range cols {
			cols[i] = ingest.NewCollect(i, 0)
			pipe.Register(cols[i])
		}
		feedPartition(pipe, stream, randomCuts(rng, len(stream), 1+rng.Intn(20)))
		for i, col := range cols {
			got := col.Corr()
			if len(got) != len(want[i]) {
				t.Fatalf("trial %d template %d: %d lags, want %d", trial, i, len(got), len(want[i]))
			}
			for j := range got {
				if got[j] != want[i][j] && !(math.IsNaN(got[j]) && math.IsNaN(want[i][j])) {
					t.Fatalf("trial %d template %d lag %d: %g != %g", trial, i, j, got[j], want[i][j])
				}
			}
		}
	}
}

// TestPipelinePrefilterMatchesBandLimit: the streaming prefilter's output,
// observed via a chunk consumer, is bit-identical to one-shot
// sig.BandLimit — and the correlation matches scanning that band-limited
// stream in one chunk.
func TestPipelinePrefilterMatchesBandLimit(t *testing.T) {
	const fs, lo, hi = 44100.0, 1000.0, 5000.0
	bank := testBank(fs)
	stream := noiseStream(25000, 3)
	filtered := sig.BandLimit(stream, lo, hi, fs)
	want := scanOneChunk(bank, filtered)

	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 6; trial++ {
		pipe := ingest.New(ingest.Config{
			Bank:      bank,
			Prefilter: sig.BandLimitFIR(lo, hi, fs),
		})
		col := ingest.NewCollect(0, 0)
		tap := &chunkTap{}
		pipe.Register(col)
		pipe.Register(tap)
		feedPartition(pipe, stream, randomCuts(rng, len(stream), 1+rng.Intn(16)))
		if len(tap.samples) != len(filtered) {
			t.Fatalf("trial %d: %d filtered samples, want %d", trial, len(tap.samples), len(filtered))
		}
		for i := range tap.samples {
			if tap.samples[i] != filtered[i] {
				t.Fatalf("trial %d: filtered sample %d: %g != %g", trial, i, tap.samples[i], filtered[i])
			}
		}
		got := col.Corr()
		if len(got) != len(want[0]) {
			t.Fatalf("trial %d: %d lags, want %d", trial, len(got), len(want[0]))
		}
		for j := range got {
			if got[j] != want[0][j] {
				t.Fatalf("trial %d lag %d: %g != %g", trial, j, got[j], want[0][j])
			}
		}
	}
}

// chunkTap records the filtered stream a pipeline delivers.
type chunkTap struct{ samples []float64 }

func (c *chunkTap) Chunk(samples []float64) { c.samples = append(c.samples, samples...) }
func (c *chunkTap) Lags(int, []float64)     {}
func (c *chunkTap) Finish()                 {}

// TestPipelineSharedScanCount: the number of forward transforms is one
// per correlation block regardless of how many consumers are registered —
// the "one shared scan" invariant.
func TestPipelineSharedScanCount(t *testing.T) {
	const fs = 44100.0
	bank := testBank(fs)
	stream := noiseStream(40000, 5)

	countScan := func(consumers int) uint64 {
		pipe := ingest.New(ingest.Config{Bank: bank})
		for i := 0; i < consumers; i++ {
			pipe.Register(ingest.NewArgMax(i % bank.Len()))
		}
		before := dsp.BankForwardTransforms()
		for off := 0; off < len(stream); off += 4096 {
			pipe.Push(stream[off:min(off+4096, len(stream))])
		}
		pipe.Close()
		return dsp.BankForwardTransforms() - before
	}

	one := countScan(1)
	three := countScan(3)
	if one == 0 {
		t.Fatal("no forward transforms counted")
	}
	if three != one {
		t.Fatalf("3 consumers cost %d forward transforms, 1 consumer cost %d — scan not shared", three, one)
	}
	// Three independent single-consumer pipelines (the legacy shape) pay
	// three times the shared cost.
	var independent uint64
	for i := 0; i < 3; i++ {
		independent += countScan(1)
	}
	if independent != 3*one {
		t.Fatalf("independent scans cost %d, want %d", independent, 3*one)
	}
}

// TestPipelineSteadyStateAllocs: after warmup, pushing buffers through a
// fully loaded pipeline (prefiltered detection + argmax + reserved
// collector + deadline meter) allocates nothing.
func TestPipelineSteadyStateAllocs(t *testing.T) {
	const fs = 44100.0
	p := sig.DefaultParams()
	det := ranging.NewDetector(p, ranging.DetectorConfig{DisablePrefilter: true})
	bank := dsp.NewMatcherBank(
		dsp.NewMatcher(p.Preamble()),
		dsp.NewMatcher(sig.LinearChirp(1000, 5000, 2048, fs)),
	)
	const chunk = 4096
	const chunks = 256
	pipe := ingest.New(ingest.Config{
		Bank:       bank,
		SampleRate: fs,
		Prefilter:  sig.BandLimitFIR(1000, 5000, fs),
		Meter:      ingest.NewMeter(1.0),
	})
	pipe.Register(det.Consumer(0))
	pipe.Register(ingest.NewArgMax(1))
	col := ingest.NewCollect(1, chunk*chunks)
	defer col.Release()
	pipe.Register(col)

	stream := noiseStream(chunk*chunks, 21)
	next := 0
	push := func() {
		pipe.Push(stream[next : next+chunk])
		next += chunk
	}
	// Warmup: size the filter scratch, the bank session's block buffers and
	// the detector's validation window.
	for i := 0; i < 32; i++ {
		push()
	}
	if allocs := testing.AllocsPerRun(100, push); allocs != 0 {
		t.Fatalf("steady-state Push allocates %.1f times per buffer, want 0", allocs)
	}
}

// TestPipelinePanics: construction and lifecycle misuse fail loudly.
func TestPipelinePanics(t *testing.T) {
	expectPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: no panic", name)
			}
		}()
		fn()
	}
	expectPanic("nil bank", func() { ingest.New(ingest.Config{}) })
	expectPanic("meter without rate", func() {
		ingest.New(ingest.Config{Bank: testBank(44100), Meter: ingest.NewMeter(1.0)})
	})
	expectPanic("push after close", func() {
		pipe := ingest.New(ingest.Config{Bank: testBank(44100)})
		pipe.Close()
		pipe.Push([]float64{1})
	})
}

// TestPipelineFedAndFinish: Fed tracks raw samples through the prefilter
// path, Close is idempotent, and Finish runs exactly once per consumer.
func TestPipelineFedAndFinish(t *testing.T) {
	const fs = 44100.0
	pipe := ingest.New(ingest.Config{
		Bank:      testBank(fs),
		Prefilter: sig.BandLimitFIR(1000, 5000, fs),
	})
	fin := &finishCounter{}
	pipe.Register(fin)
	pipe.Push(make([]float64, 1000))
	pipe.Push(nil)
	if pipe.Fed() != 1000 {
		t.Fatalf("Fed = %d, want 1000", pipe.Fed())
	}
	pipe.Close()
	pipe.Close()
	if fin.n != 1 {
		t.Fatalf("Finish ran %d times, want 1", fin.n)
	}
}

type finishCounter struct{ n int }

func (f *finishCounter) Lags(int, []float64) {}
func (f *finishCounter) Finish()             { f.n++ }

// TestArgMaxSemantics: first strict maximum wins; NaNs never win; empty
// input reports index -1.
func TestArgMaxSemantics(t *testing.T) {
	a := ingest.NewArgMax(0)
	if idx, _ := a.Best(); idx != -1 || a.Count() != 0 {
		t.Fatalf("fresh ArgMax: idx %d count %d", idx, a.Count())
	}
	a.Lags(1, []float64{99}) // other template: ignored
	a.Lags(0, []float64{1, math.NaN(), 5, 5, 2})
	a.Lags(0, []float64{5, 7})
	idx, val := a.Best()
	if idx != 6 || val != 7 || a.Count() != 7 {
		t.Fatalf("got idx %d val %g count %d, want 6 7 7", idx, val, a.Count())
	}
	nan := ingest.NewArgMax(0)
	nan.Lags(0, []float64{math.NaN(), math.NaN()})
	if idx, _ := nan.Best(); idx != -1 {
		t.Fatalf("all-NaN stream: idx %d, want -1", idx)
	}
}

// TestCollectPooled: a reserved collector accumulates across calls and
// filters by template; Release is idempotent.
func TestCollectPooled(t *testing.T) {
	c := ingest.NewCollect(1, 8)
	c.Lags(0, []float64{9, 9})
	c.Lags(1, []float64{1, 2})
	c.Lags(1, []float64{3})
	got := c.Corr()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("collected %v, want [1 2 3]", got)
	}
	c.Release()
	c.Release()
	if c.Corr() != nil {
		t.Fatal("Corr non-nil after Release")
	}
}
