package experiments

import (
	"fmt"
	"math"
	"time"

	"uwpos/internal/dsp"
	"uwpos/internal/ingest"
	"uwpos/internal/ranging"
	"uwpos/internal/sig"
	"uwpos/internal/stats"
)

// runStreaming benchmarks the chunked detection subsystem on one synthetic
// dive-round stream: a 10 s microphone capture carrying two ranging
// preambles, a baseline chirp and a calibration chirp in ambient noise.
// It reports throughput for (a) one-shot vs chunked preamble detection —
// which must find identical detections, the equivalence the streaming
// test harness proves — (b) scanning the stream for all three templates
// separately vs through one dsp.MatcherBank, whose shared forward
// transform is the batched-matching win, and (c) a receiver-shaped
// comparison of the round's four consumers (detection, calibration
// argmax, BeepBeep, CAT) as independent legacy scans vs riding one shared
// ingest.Pipeline — with the forward-transform counts that show the
// shared scan doing the work of three at the cost of one. Timing cells
// vary run to run; the detection counts, transform counts and the match
// verdicts are deterministic in the seed.
func runStreaming(opt Options) *stats.Table {
	rng := opt.rng()
	p := sig.DefaultParams()
	fs := p.SampleRate
	total := int(10 * fs)
	stream := make([]float64, total)
	for i := range stream {
		stream[i] = 0.05 * rng.NormFloat64()
	}
	add := func(wave []float64, at int, amp float64) {
		for i, v := range wave {
			stream[at+i] += amp * v
		}
	}
	pre := sig.SharedPreamble(p)
	chirp := sig.LinearChirp(p.BandLowHz, p.BandHighHz, p.PreambleLen(), fs)
	cal := p.CalibrationSignal(0)
	add(pre, 50_000, 0.9)
	add(pre, 250_000, 0.7)
	add(chirp, 150_000, 0.8)
	add(cal, 350_000, 0.8)

	const chunk = 4096 // typical OS audio-buffer grain, as in sim
	inChunks := func(push func([]float64)) {
		for off := 0; off < total; off += chunk {
			push(stream[off:min(off+chunk, total)])
		}
	}
	det := ranging.NewDetector(p, ranging.DetectorConfig{})
	reference := det.Detect(stream) // also warms the shared spectra

	// Every scan below runs on a dsp.BankStream session. "Separate" is
	// three one-template banks, each fed the whole stream; "bank
	// one-shot" feeds the whole stream to the 3-template bank in one
	// Feed, the way Detector.Detect scans.
	bank := dsp.NewMatcherBank(dsp.NewMatcher(pre), dsp.NewMatcher(chirp), dsp.NewMatcher(cal))
	separate := make([]*dsp.MatcherBank, bank.Len())
	for i := range separate {
		separate[i] = dsp.NewMatcherBank(bank.Matcher(i))
	}
	scanWhole := func(b *dsp.MatcherBank) {
		s := b.Stream()
		s.Feed(stream)
		s.Flush()
	}
	scanSeparate := func() {
		for _, b := range separate {
			scanWhole(b)
		}
	}
	scanSeparate() // warm every block-length spectrum before timing
	scanWhole(bank)

	reps := opt.samples(5)
	best := func(fn func()) float64 {
		b := math.Inf(1)
		for r := 0; r < reps; r++ {
			t0 := time.Now()
			fn()
			if dt := time.Since(t0).Seconds(); dt < b {
				b = dt
			}
			opt.observe(b)
		}
		return b
	}

	tOneShot := best(func() { det.Detect(stream) })
	var chunked []ranging.Detection
	tChunked := best(func() {
		sd := det.Stream()
		inChunks(sd.Feed)
		chunked = sd.Flush()
	})
	match := len(chunked) == len(reference)
	for i := range reference {
		if !match || chunked[i].CoarseIndex != reference[i].CoarseIndex {
			match = false
			break
		}
	}
	tSeparate := best(scanSeparate)
	tBank := best(func() { scanWhole(bank) })
	tBankStream := best(func() {
		s := bank.Stream()
		inChunks(func(c []float64) { s.Feed(c) })
		s.Flush()
	})

	// Receiver-shaped comparison: the round's four consumers — preamble
	// detection, calibration argmax, BeepBeep and CAT arrival — once as
	// independent scans of the stream (the legacy shape: each pays its own
	// forward transforms) and once riding one shared ingest pipeline.
	// Detection runs unfiltered on both sides so every consumer sees the
	// same raw stream. dsp's transform counter measures the structural win;
	// the arrival/argmax agreement between the two shapes is the shared
	// scan's correctness check.
	detNP := ranging.NewDetector(p, ranging.DetectorConfig{DisablePrefilter: true})
	bb := ranging.NewBeepBeep(chirp)
	cat := ranging.NewCAT(chirp, fs, p.BandHighHz-p.BandLowHz)
	calBank := dsp.NewMatcherBank(dsp.NewMatcher(cal))
	feed := func(pipe *ingest.Pipeline) {
		inChunks(pipe.Push)
		pipe.Close()
	}
	// scanBaseline scans the stream with a baseline's own single-template
	// pipeline, as sim scans the baselines; release the plane when done.
	scanBaseline := func(b *dsp.MatcherBank) *ingest.Collect {
		pipe := ingest.New(ingest.Config{Bank: b})
		col := ingest.NewCollect(0, total)
		pipe.Register(col)
		feed(pipe)
		return col
	}
	type receiverOut struct {
		dets       int
		calIdx     int
		bbIdx      float64
		catIdx     float64
		transforms uint64
	}
	legacyRun := func() receiverOut {
		var out receiverOut
		t0 := dsp.BankForwardTransforms()
		sd := detNP.Stream()
		inChunks(sd.Feed)
		out.dets = len(sd.Flush())
		calPipe := ingest.New(ingest.Config{Bank: calBank})
		am := ingest.NewArgMax(0)
		calPipe.Register(am)
		feed(calPipe)
		out.calIdx, _ = am.Best()
		bbCol := scanBaseline(bb.Bank())
		out.bbIdx, _ = bb.ArrivalFromCorr(bbCol.Corr())
		bbCol.Release()
		catCol := scanBaseline(cat.Bank())
		out.catIdx, _ = cat.ArrivalFromCorr(catCol.Corr(), stream)
		catCol.Release()
		out.transforms = dsp.BankForwardTransforms() - t0
		return out
	}
	sharedRun := func() receiverOut {
		var out receiverOut
		t0 := dsp.BankForwardTransforms()
		pipe := ingest.New(ingest.Config{Bank: bank})
		sd := detNP.Consumer(0)
		col := ingest.NewCollect(1, total)
		am := ingest.NewArgMax(2)
		pipe.Register(sd)
		pipe.Register(col)
		pipe.Register(am)
		feed(pipe)
		out.dets = len(sd.Detections())
		out.calIdx, _ = am.Best()
		out.bbIdx, _ = bb.ArrivalFromCorr(col.Corr())
		out.catIdx, _ = cat.ArrivalFromCorr(col.Corr(), stream)
		col.Release()
		out.transforms = dsp.BankForwardTransforms() - t0
		return out
	}
	var legacy, shared receiverOut
	tLegacy := best(func() { legacy = legacyRun() })
	tShared := best(func() { shared = sharedRun() })
	rxMatch := legacy.dets == shared.dets && legacy.calIdx == shared.calIdx &&
		int(legacy.bbIdx) == int(shared.bbIdx) && int(legacy.catIdx) == int(shared.catIdx)

	msps := func(t float64) string { return stats.F(float64(total) / t / 1e6) }
	verdict := "match"
	if !match {
		verdict = "MISMATCH"
	}
	table := &stats.Table{
		ID:     "streaming",
		Title:  "streaming chunked detection: one-shot vs chunked vs 3-template bank",
		Header: []string{"path", "templates", "Msamp/s", "speedup", "result"},
		Notes: "speedup: chunked rows vs their one-shot row, bank rows vs 3 separate scans, " +
			"shared-ingest row vs the legacy independent scans; detection equivalence (result " +
			"column) is exact by construction; xf = forward FFTs (block grids differ by path)",
	}
	rxVerdict := fmt.Sprintf("%d xf, match", shared.transforms)
	if !rxMatch {
		rxVerdict = fmt.Sprintf("%d xf, MISMATCH", shared.transforms)
	}
	table.Rows = append(table.Rows,
		[]string{"detect one-shot", "1", msps(tOneShot), "1.00", fmt.Sprintf("%d det", len(reference))},
		[]string{"detect chunked 4096", "1", msps(tChunked), stats.F(tOneShot / tChunked), verdict},
		[]string{"3 matchers separate", "3", msps(tSeparate), "1.00", "3 scans"},
		[]string{"bank one-shot", "3", msps(tBank), stats.F(tSeparate / tBank), "3 scans"},
		[]string{"bank chunked 4096", "3", msps(tBankStream), stats.F(tSeparate / tBankStream), "3 scans"},
		[]string{"receiver legacy scans", "3", msps(tLegacy), "1.00", fmt.Sprintf("%d xf", legacy.transforms)},
		[]string{"receiver shared ingest", "3", msps(tShared), stats.F(tLegacy / tShared), rxVerdict},
	)
	return table
}
