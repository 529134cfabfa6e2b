package ranging

import (
	"math"
	"math/rand"
	"testing"

	"uwpos/internal/channel"
	"uwpos/internal/dsp"
	"uwpos/internal/geom"
	"uwpos/internal/ingest"
	"uwpos/internal/sig"
)

func testParams() sig.Params { return sig.DefaultParams() }

// makeStream embeds the preamble at a given index in Gaussian noise.
func makeStream(t *testing.T, p sig.Params, at, total int, amp, noiseRMS float64, seed int64) []float64 {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	stream := make([]float64, total)
	for i := range stream {
		stream[i] = noiseRMS * r.NormFloat64()
	}
	pre := p.Preamble()
	if at+len(pre) > total {
		t.Fatal("stream too short")
	}
	for i, v := range pre {
		stream[at+i] += amp * v
	}
	return stream
}

// collectCorr scans stream with bank through an ingest pipeline fed in
// one buffer and returns template 0's normalized correlation.
func collectCorr(bank *dsp.MatcherBank, stream []float64) []float64 {
	pipe := ingest.New(ingest.Config{Bank: bank})
	col := ingest.NewCollect(0, 0)
	pipe.Register(col)
	pipe.Push(stream)
	pipe.Close()
	return col.Corr()
}

func TestDetectorFindsCleanPreamble(t *testing.T) {
	p := testParams()
	const at = 20000
	stream := makeStream(t, p, at, 60000, 1.0, 0.01, 1)
	d := NewDetector(p, DetectorConfig{})
	dets := d.Detect(stream)
	if len(dets) != 1 {
		t.Fatalf("got %d detections, want 1", len(dets))
	}
	if e := abs(dets[0].CoarseIndex - at); e > 3 {
		t.Errorf("coarse index %d, want %d (err %d)", dets[0].CoarseIndex, at, e)
	}
	if dets[0].AutoCorr < 0.9 {
		t.Errorf("clean preamble autocorr %g, want ~1", dets[0].AutoCorr)
	}
}

func TestDetectorLowSNR(t *testing.T) {
	p := testParams()
	const at = 15000
	// Per-sample wideband SNR ≈ −6 dB (preamble RMS ≈ 0.28·amp); the
	// in-band prefilter recovers ~10 dB, putting validation in its
	// operating regime.
	stream := makeStream(t, p, at, 50000, 0.25, 0.14, 2)
	d := NewDetector(p, DetectorConfig{CandidateThreshold: 0.05})
	dets := d.Detect(stream)
	if len(dets) != 1 {
		t.Fatalf("got %d detections at low SNR, want 1", len(dets))
	}
	if e := abs(dets[0].CoarseIndex - at); e > 5 {
		t.Errorf("coarse error %d samples", e)
	}
	// Without the prefilter the same stream is missed: the validation
	// stage sees the full-band noise.
	dRaw := NewDetector(p, DetectorConfig{CandidateThreshold: 0.05, DisablePrefilter: true})
	if raw := dRaw.Detect(stream); len(raw) >= 1 && raw[0].AutoCorr > dets[0].AutoCorr {
		t.Errorf("prefilter should improve the validation score (raw %g vs filtered %g)",
			raw[0].AutoCorr, dets[0].AutoCorr)
	}
}

// TestDetectorPeakInvariance: the detector must find its candidate peaks
// at exactly the indices of a reference correlation scanned in one chunk
// on the throughput (8×) grid. The detector scans on the low-latency
// (2×) grid, so the two may differ in low-order bits but never in peak
// placement.
func TestDetectorPeakInvariance(t *testing.T) {
	p := testParams()
	for seed := int64(40); seed < 45; seed++ {
		at := 8000 + int(seed*1777)%30000
		stream := makeStream(t, p, at, 70000, 0.8, 0.05, seed)
		d := NewDetector(p, DetectorConfig{})
		filtered := sig.BandLimit(stream, p.BandLowHz, p.BandHighHz, p.SampleRate)
		ref := collectCorr(dsp.NewMatcherBank(dsp.NewMatcher(p.Preamble())), filtered)
		refPeaks := dsp.FindPeaks(ref, 0.15)
		refIdx := make(map[int]bool, len(refPeaks))
		for _, pk := range refPeaks {
			refIdx[pk.Index] = true
		}
		dets := d.Detect(stream)
		if len(dets) == 0 {
			t.Fatalf("seed %d: preamble at %d not detected", seed, at)
		}
		for _, det := range dets {
			if !refIdx[det.CoarseIndex] {
				t.Errorf("seed %d: detection at %d is not a reference correlation peak", seed, det.CoarseIndex)
			}
		}
		if e := abs(dets[0].CoarseIndex - at); e > 3 {
			t.Errorf("seed %d: coarse index %d, want %d", seed, dets[0].CoarseIndex, at)
		}
	}
}

func TestDetectorRejectsNoise(t *testing.T) {
	p := testParams()
	r := rand.New(rand.NewSource(3))
	stream := make([]float64, 60000)
	for i := range stream {
		stream[i] = 0.5 * r.NormFloat64()
	}
	d := NewDetector(p, DetectorConfig{})
	if dets := d.Detect(stream); len(dets) != 0 {
		t.Errorf("false positives on pure noise: %v", dets)
	}
}

func TestDetectorRejectsImpulsiveSpikes(t *testing.T) {
	// Loud decaying bursts excite the cross-correlator but cannot pass the
	// 4-symbol PN validation (the paper's motivation for auto-correlation).
	p := testParams()
	r := rand.New(rand.NewSource(4))
	stream := make([]float64, 80000)
	for i := range stream {
		stream[i] = 0.01 * r.NormFloat64()
	}
	for k := 0; k < 30; k++ {
		at := 1000 + r.Intn(70000)
		f := 2000 + 2000*r.Float64()
		for i := 0; i < 800; i++ {
			if at+i >= len(stream) {
				break
			}
			stream[at+i] += 3 * math.Exp(-float64(i)/200) * math.Sin(2*math.Pi*f*float64(i)/44100)
		}
	}
	d := NewDetector(p, DetectorConfig{})
	if dets := d.Detect(stream); len(dets) != 0 {
		t.Errorf("impulsive noise produced %d false detections", len(dets))
	}
}

func TestValidateCandidateExact(t *testing.T) {
	p := testParams()
	stream := makeStream(t, p, 5000, 30000, 1, 0, 5)
	if s := validatePN(p, stream, 5000); s < 0.999 {
		t.Errorf("noiseless validation score %g", s)
	}
	// A misaligned candidate scores lower than aligned (the cyclic-prefix
	// structure keeps some correlation at any shift, so the margin is
	// moderate rather than total).
	if s := validatePN(p, stream, 5000+977); s > 0.9 {
		t.Errorf("misaligned score %g unexpectedly high", s)
	}
	// Out of range is 0.
	if s := validatePN(p, stream, -1); s != 0 {
		t.Error("negative index should score 0")
	}
	if s := validatePN(p, stream, len(stream)); s != 0 {
		t.Error("past-end index should score 0")
	}
}

func TestChannelEstimatorSingleTap(t *testing.T) {
	p := testParams()
	const at = 10000
	stream := makeStream(t, p, at, 40000, 1, 0.005, 6)
	ce := NewChannelEstimator(p)
	h, err := ce.Estimate(stream, at)
	if err != nil {
		t.Fatal(err)
	}
	if len(h) != p.SymbolLen {
		t.Fatalf("profile length %d", len(h))
	}
	idx, v := dsp.Max(h)
	if v != 1 {
		t.Errorf("profile not normalized: max %g", v)
	}
	if e := abs(idx - ce.GuardTaps); e > 2 {
		t.Errorf("direct tap at %d, want %d", idx, ce.GuardTaps)
	}
}

func TestChannelEstimatorTwoTaps(t *testing.T) {
	p := testParams()
	const at = 10000
	const echoDelay = 60
	r := rand.New(rand.NewSource(7))
	stream := make([]float64, 40000)
	for i := range stream {
		stream[i] = 0.003 * r.NormFloat64()
	}
	pre := p.Preamble()
	for i, v := range pre {
		stream[at+i] += v
		stream[at+echoDelay+i] += 0.6 * v
	}
	ce := NewChannelEstimator(p)
	h, err := ce.Estimate(stream, at)
	if err != nil {
		t.Fatal(err)
	}
	// Two dominant peaks at guard and guard+echoDelay.
	p1 := h[ce.GuardTaps]
	p2 := h[ce.GuardTaps+echoDelay]
	if p1 < 0.8 {
		t.Errorf("direct tap magnitude %g", p1)
	}
	if p2 < 0.4 || p2 > 0.85 {
		t.Errorf("echo magnitude %g, want ~0.6", p2)
	}
	// Elsewhere (far from both peaks) the profile should be quiet.
	var quiet float64
	for i := ce.GuardTaps + 300; i < ce.GuardTaps+500; i++ {
		if h[i] > quiet {
			quiet = h[i]
		}
	}
	if quiet > 0.2 {
		t.Errorf("profile floor %g too high", quiet)
	}
}

func TestChannelEstimatorErrors(t *testing.T) {
	p := testParams()
	ce := NewChannelEstimator(p)
	stream := make([]float64, p.PreambleLen()+100)
	if _, err := ce.Estimate(stream, 10); err == nil {
		t.Error("coarse index inside the guard should error")
	}
	if _, err := ce.Estimate(stream, len(stream)); err == nil {
		t.Error("overrun should error")
	}
}

func TestJointDirectPathRejectsSingleMicGhost(t *testing.T) {
	// A spurious early peak on mic 1 only must not win the joint search.
	h1 := make([]float64, 600)
	h2 := make([]float64, 600)
	bump(h1, 80, 0.5)  // ghost, only on mic 1
	bump(h1, 150, 1.0) // true direct
	bump(h2, 152, 1.0)
	cfg := DirectPathConfig{MaxMicOffset: 5}
	res := JointDirectPath(h1, h2, cfg)
	if !res.OK {
		t.Fatal("joint search failed")
	}
	if math.Abs(res.TauTaps-151) > 2 {
		t.Errorf("tau %g, want ~151 (ghost rejected)", res.TauTaps)
	}
}

func TestJointDirectPathAcceptsConsistentEarly(t *testing.T) {
	// A weak direct path present on both mics beats a stronger later echo.
	h1 := make([]float64, 600)
	h2 := make([]float64, 600)
	bump(h1, 100, 0.45)
	bump(h2, 103, 0.4)
	bump(h1, 180, 1.0)
	bump(h2, 181, 1.0)
	res := JointDirectPath(h1, h2, DirectPathConfig{MaxMicOffset: 5})
	if !res.OK || math.Abs(res.TauTaps-101.5) > 2 {
		t.Fatalf("tau %g ok=%v, want ~101.5", res.TauTaps, res.OK)
	}
	if MicOffsetSign(res) != 1 {
		t.Errorf("mic sign %d, want +1 (mic1 first)", MicOffsetSign(res))
	}
}

func TestJointDirectPathBelowFloorFails(t *testing.T) {
	h1 := make([]float64, 600)
	h2 := make([]float64, 600)
	// Noise floor ~0.9 everywhere: nothing exceeds floor+lambda.
	for i := range h1 {
		h1[i] = 0.85 + 0.1*math.Sin(float64(i))
		h2[i] = 0.85 + 0.1*math.Cos(float64(i))
	}
	res := JointDirectPath(h1, h2, DirectPathConfig{})
	if res.OK {
		t.Error("search should fail when profiles are all noise")
	}
	if MicOffsetSign(res) != 0 {
		t.Error("failed search should have sign 0")
	}
	if r := JointDirectPath(nil, h2, DirectPathConfig{}); r.OK {
		t.Error("nil profile should fail")
	}
}

func TestSingleMicPicksEarliestPeak(t *testing.T) {
	h := make([]float64, 600)
	bump(h, 90, 0.5)
	bump(h, 200, 1.0)
	res := SingleMicDirectPath(h)
	if !res.OK || math.Abs(res.TauTaps-90) > 1 {
		t.Fatalf("single-mic tau %g, want 90", res.TauTaps)
	}
	if r := SingleMicDirectPath(nil); r.OK {
		t.Error("nil profile should fail")
	}
}

// bump adds a narrow triangular peak, wide enough to be a band-limited-
// plausible local max.
func bump(h []float64, at int, amp float64) {
	for k := -8; k <= 8; k++ {
		i := at + k
		if i < 0 || i >= len(h) {
			continue
		}
		v := amp * (1 - math.Abs(float64(k))/9)
		if v > h[i] {
			h[i] = v
		}
	}
}

// TestEndToEndThroughChannel is the flagship ranging test: a full preamble
// rendered through dock multipath + noise to a dual-mic phone 20 m away,
// recovered by the complete pipeline with sub-metre error.
func TestEndToEndThroughChannel(t *testing.T) {
	p := testParams()
	env := channel.Dock()
	rng := rand.New(rand.NewSource(11))
	const fs = 44100.0

	tx := geom.Vec3{X: 0, Y: 0, Z: 2.5}
	micA := geom.Vec3{X: 20, Y: 0, Z: 2.5}
	micB := geom.Vec3{X: 20.16, Y: 0, Z: 2.5}

	total := 60000
	streamA := make([]float64, total)
	streamB := make([]float64, total)
	const txStart = 12000
	pre := p.Preamble()
	tapsA := env.WithScatter(env.ImpulseResponse(tx, micA, channel.ImpulseOptions{}), rng)
	tapsB := env.WithScatter(env.ImpulseResponse(tx, micB, channel.ImpulseOptions{}), rng)
	// Amplify: unit TX at 20 m gives amplitude ~1/20; scale so SNR is
	// realistic vs ambient noise.
	for i := range tapsA {
		tapsA[i].Amplitude *= 30
	}
	for i := range tapsB {
		tapsB[i].Amplitude *= 30
	}
	channel.Render(streamA, pre, tapsA, txStart, fs)
	channel.Render(streamB, pre, tapsB, txStart, fs)
	env.AddNoise(streamA, fs, rng)
	env.AddNoise(streamB, fs, rng)

	r := NewRanger(p, DetectorConfig{}, DirectPathConfig{})
	results, err := r.Refine(streamA, streamB, r.Detector.Detect(streamA))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 {
		t.Fatalf("got %d arrivals, want 1", len(results))
	}
	c := env.SoundSpeed(2.5)
	wantArrival := float64(txStart) + tx.Dist(micA)/c*fs
	errSamples := math.Abs(results[0].ArrivalIdx - wantArrival)
	errMetres := errSamples / fs * c
	if errMetres > 0.75 {
		t.Errorf("end-to-end ranging error %.2f m (%.1f samples)", errMetres, errSamples)
	}
}

func TestBeepBeepArrival(t *testing.T) {
	const fs = 44100.0
	chirp := sig.LinearChirp(1000, 5000, 9840, fs)
	r := rand.New(rand.NewSource(12))
	stream := make([]float64, 40000)
	for i := range stream {
		stream[i] = 0.02 * r.NormFloat64()
	}
	const at = 9000
	for i, v := range chirp {
		stream[at+i] += v
	}
	bb := NewBeepBeep(chirp)
	idx, ok := bb.ArrivalFromCorr(collectCorr(bb.Bank(), stream))
	if !ok {
		t.Fatal("no arrival")
	}
	if math.Abs(idx-at) > 3 {
		t.Errorf("BeepBeep arrival %g, want %d", idx, at)
	}
	if _, ok := bb.ArrivalFromCorr(collectCorr(bb.Bank(), nil)); ok {
		t.Error("nil stream should fail")
	}
}

func TestBeepBeepLocksOntoStrongestPathUnderOcclusion(t *testing.T) {
	// With the direct path attenuated below a strong echo, plain
	// correlation (BeepBeep) follows the echo — the failure mode our
	// dual-mic channel-domain search avoids (Fig. 12b's gap).
	const fs = 44100.0
	chirp := sig.LinearChirp(1000, 5000, 9840, fs)
	stream := make([]float64, 40000)
	const at = 9000
	const echo = 120
	for i, v := range chirp {
		stream[at+i] += 0.2 * v      // occluded direct
		stream[at+echo+i] += 1.0 * v // dominant reflection
	}
	bb := NewBeepBeep(chirp)
	idx, ok := bb.ArrivalFromCorr(collectCorr(bb.Bank(), stream))
	if !ok {
		t.Fatal("no arrival")
	}
	if idx < at+echo-5 {
		t.Errorf("expected echo lock at ~%d, got %g", at+echo, idx)
	}
}

func TestCATArrivalClean(t *testing.T) {
	const fs = 44100.0
	sweep := sig.LinearChirp(1000, 5000, 9840, fs)
	r := rand.New(rand.NewSource(13))
	stream := make([]float64, 40000)
	for i := range stream {
		stream[i] = 0.01 * r.NormFloat64()
	}
	const at = 11000
	for i, v := range sweep {
		stream[at+i] += v
	}
	cat := NewCAT(sweep, fs, 4000)
	idx, ok := cat.ArrivalFromCorr(collectCorr(cat.Bank(), stream), stream)
	if !ok {
		t.Fatal("no arrival")
	}
	if math.Abs(idx-at) > 12 {
		t.Errorf("CAT arrival %g, want %d", idx, at)
	}
}

func TestWindowPowerDetector(t *testing.T) {
	r := rand.New(rand.NewSource(14))
	stream := make([]float64, 30000)
	for i := range stream {
		stream[i] = 0.01 * r.NormFloat64()
	}
	for i := 12000; i < 14000; i++ {
		stream[i] += 0.5 * math.Sin(2*math.Pi*3000*float64(i)/44100)
	}
	det := WindowPowerDetector{WindowLen: 441, ThresholdDB: 6}
	hits := det.Detect(stream)
	if len(hits) == 0 {
		t.Fatal("burst not detected")
	}
	if hits[0] < 11500 || hits[0] > 13000 {
		t.Errorf("detection at %d, want ~12000", hits[0])
	}
	// Degenerate config.
	if (WindowPowerDetector{}).Detect(stream) != nil {
		t.Error("zero window should detect nothing")
	}
}

func TestSubcarrierSNRRisesWithSignal(t *testing.T) {
	p := testParams()
	ce := NewChannelEstimator(p)
	strong := makeStream(t, p, 5000, 30000, 1.0, 0.01, 15)
	weak := makeStream(t, p, 5000, 30000, 0.1, 0.01, 15)
	sStrong, err := ce.SubcarrierSNR(strong, 5000)
	if err != nil {
		t.Fatal(err)
	}
	sWeak, err := ce.SubcarrierSNR(weak, 5000)
	if err != nil {
		t.Fatal(err)
	}
	meanDB := func(pts []SNRPoint) float64 {
		var s float64
		for _, pt := range pts {
			s += pt.SNRDB
		}
		return s / float64(len(pts))
	}
	ms, mw := meanDB(sStrong), meanDB(sWeak)
	if ms < mw+10 {
		t.Errorf("strong SNR %g should exceed weak %g by >10 dB", ms, mw)
	}
	// Frequencies must cover 1–5 kHz.
	if sStrong[0].FreqHz < 900 || sStrong[0].FreqHz > 1100 {
		t.Errorf("first subcarrier at %g Hz", sStrong[0].FreqHz)
	}
	last := sStrong[len(sStrong)-1].FreqHz
	if last < 4900 || last > 5100 {
		t.Errorf("last subcarrier at %g Hz", last)
	}
	if _, err := ce.SubcarrierSNR(strong, -1); err == nil {
		t.Error("out-of-bounds should error")
	}
}

func BenchmarkDetect2s(b *testing.B) {
	p := testParams()
	r := rand.New(rand.NewSource(1))
	stream := make([]float64, 88200)
	for i := range stream {
		stream[i] = 0.02 * r.NormFloat64()
	}
	pre := p.Preamble()
	copy(stream[30000:], pre)
	d := NewDetector(p, DetectorConfig{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Detect(stream)
	}
}

func BenchmarkChannelEstimate(b *testing.B) {
	p := testParams()
	r := rand.New(rand.NewSource(2))
	stream := make([]float64, 30000)
	for i := range stream {
		stream[i] = 0.01 * r.NormFloat64()
	}
	pre := p.Preamble()
	copy(stream[5000:], pre)
	ce := NewChannelEstimator(p)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ce.Estimate(stream, 5000); err != nil {
			b.Fatal(err)
		}
	}
}

func TestBaselinesEmptyTemplateReturnsFalse(t *testing.T) {
	// Regression: an empty template must keep the graceful ok=false
	// rather than panicking in dsp.NewMatcherBank: there is no bank to
	// scan with, and the empty correlation yields no arrival.
	stream := make([]float64, 1000)
	bb := NewBeepBeep(nil)
	if bb.Bank() != nil {
		t.Error("BeepBeep with empty template must have no bank")
	}
	if _, ok := bb.ArrivalFromCorr(nil); ok {
		t.Error("BeepBeep on an empty correlation must report ok=false")
	}
	cat := NewCAT(nil, 44100, 4000)
	if cat.Bank() != nil {
		t.Error("CAT with empty sweep must have no bank")
	}
	if _, ok := cat.ArrivalFromCorr(nil, stream); ok {
		t.Error("CAT on an empty correlation must report ok=false")
	}
}
