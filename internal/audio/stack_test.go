package audio

import (
	"math"
	"testing"
	"testing/quick"
)

func defaultCfg() Config {
	return Config{
		SampleRate: 44100,
		NumMics:    2,
		Duration:   2,
	}
}

func TestNewStackValidation(t *testing.T) {
	bad := []Config{
		{},
		{SampleRate: 44100, NumMics: 0, Duration: 1},
		{SampleRate: 44100, NumMics: 2, Duration: 0},
		{SampleRate: 44100, NumMics: 2, Duration: 1, SpeakerSkew: 0.5},
		{SampleRate: 44100, NumMics: 2, Duration: 1, MicSkew: -0.5},
	}
	for i, cfg := range bad {
		if _, err := NewStack(cfg); err == nil {
			t.Errorf("config %d should be rejected", i)
		}
	}
	s, err := NewStack(defaultCfg())
	if err != nil {
		t.Fatal(err)
	}
	if s.NumMics() != 2 {
		t.Errorf("NumMics = %d", s.NumMics())
	}
	if s.StreamLen() != 2*44100+1 {
		t.Errorf("StreamLen = %d", s.StreamLen())
	}
}

func TestClockRates(t *testing.T) {
	cfg := defaultCfg()
	cfg.SpeakerSkew = 50e-6 // 50 ppm fast... fs/(1-α) > fs
	cfg.MicSkew = -20e-6
	s, err := NewStack(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s.SpeakerRate() <= cfg.SampleRate {
		t.Error("positive α should raise the true speaker rate")
	}
	if s.MicRate() >= cfg.SampleRate {
		t.Error("negative β should lower the true mic rate")
	}
}

func TestIndexTimeRoundTrip(t *testing.T) {
	f := func(skewPPM int16, startMs uint16, idx uint16) bool {
		cfg := defaultCfg()
		cfg.SpeakerSkew = float64(skewPPM%200) * 1e-6
		cfg.MicSkew = float64(skewPPM%77) * 1e-6
		cfg.SpeakerStart = float64(startMs) / 1000
		cfg.MicStart = float64(startMs)/1000 + 0.013
		s, err := NewStack(cfg)
		if err != nil {
			return false
		}
		n := float64(idx)
		tn := s.SpeakerIndexToTime(n)
		if math.Abs((tn-cfg.SpeakerStart)*s.SpeakerRate()-n) > 1e-6 {
			return false
		}
		tm := cfg.MicStart + n/s.MicRate()
		return math.Abs(s.TimeToMicIndex(tm)-n) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestWriteSpeakerClipping(t *testing.T) {
	s, _ := NewStack(defaultCfg())
	wave := []float64{1, 2, 3, 4}
	// Negative start clips the head.
	if n := s.WriteSpeaker(-2, wave); n != 2 {
		t.Errorf("wrote %d, want 2", n)
	}
	if s.speaker[0] != 3 || s.speaker[1] != 4 {
		t.Errorf("head clip wrong: %v", s.speaker[:3])
	}
	// Past-the-end clips the tail.
	last := s.StreamLen() - 2
	if n := s.WriteSpeaker(last, wave); n != 2 {
		t.Errorf("wrote %d at tail, want 2", n)
	}
	// Writes are additive (mixing).
	s.WriteSpeaker(0, []float64{10, 10})
	if s.speaker[0] != 13 {
		t.Errorf("additive write: got %g", s.speaker[0])
	}
}

func TestCalibrationAndReplyIndex(t *testing.T) {
	s, _ := NewStack(defaultCfg())
	if s.calibrated {
		t.Error("fresh stack must be uncalibrated")
	}
	s.Calibrate(1000, 400) // Δn = 600
	if !s.calibrated || s.IndexOffset() != 600 {
		t.Fatalf("offset = %d", s.IndexOffset())
	}
	// Reply 100 ms after detection at mic index 5000:
	// n2 = 5000 + 600 + 4410 = 10010.
	if got := s.ReplyIndex(5000, 0.1); got != 10010 {
		t.Errorf("ReplyIndex = %d, want 10010", got)
	}
}

func TestReplyIndexPanicsUncalibrated(t *testing.T) {
	s, _ := NewStack(defaultCfg())
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.ReplyIndex(100, 0.1)
}

// ReplyTimingError returns the difference t_reply − t⁰_reply that the
// index arithmetic incurs from clock skew (Eq. 6 of the paper):
//
//	err = −α·t⁰ + (m₂ − m₁)(β − α)/fs
//
// It bounds the timing error TestEndToEndReplyTiming measures.
func (s *Stack) ReplyTimingError(tReply0 float64, m2, m1 int) float64 {
	alpha, beta := s.cfg.SpeakerSkew, s.cfg.MicSkew
	return -alpha*tReply0 + float64(m2-m1)*(beta-alpha)/s.cfg.SampleRate
}

func TestReplyTimingErrorEquation(t *testing.T) {
	cfg := defaultCfg()
	cfg.SpeakerSkew = 40e-6 // α
	cfg.MicSkew = 10e-6     // β
	s, _ := NewStack(cfg)
	// Eq. 6: err = −α·t⁰ + (m2−m1)(β−α)/fs.
	got := s.ReplyTimingError(0.5, 50000, 2000)
	want := -40e-6*0.5 + 48000*(10e-6-40e-6)/44100
	if math.Abs(got-want) > 1e-15 {
		t.Errorf("timing error %g, want %g", got, want)
	}
	// Zero skew: no error.
	s2, _ := NewStack(defaultCfg())
	if e := s2.ReplyTimingError(1.0, 90000, 0); e != 0 {
		t.Errorf("zero-skew error %g", e)
	}
}

// TestEndToEndReplyTiming verifies the core self-synchronization claim: a
// device that calibrates Δn and schedules by index arithmetic achieves the
// desired reply interval in *absolute* time to within the Eq. 6 error, even
// though its two streams started at different unknown times and run at
// skewed rates.
func TestEndToEndReplyTiming(t *testing.T) {
	cfg := defaultCfg()
	cfg.SpeakerStart = 0.850 // OS opened streams at arbitrary offsets
	cfg.MicStart = 0.321
	cfg.SpeakerSkew = 30e-6
	cfg.MicSkew = -15e-6
	cfg.Duration = 5
	s, _ := NewStack(cfg)

	// Self-calibration: device writes the calibration signal at n1. It
	// reaches its own mic after delta2 (speaker→mic acoustic path, ~0).
	const n1 = 7000
	delta2 := 0.0001
	tPlay := s.SpeakerIndexToTime(float64(n1))
	m1 := int(math.Round(s.TimeToMicIndex(tPlay + delta2)))
	s.Calibrate(n1, m1)

	// A remote signal arrives at absolute time tArr -> mic index m2.
	tArr := 2.0
	m2 := int(math.Round(s.TimeToMicIndex(tArr)))

	// Device schedules a reply t_reply later by index arithmetic alone.
	const tReply = 0.320
	n2 := s.ReplyIndex(m2, tReply)

	// When does that reply actually reach its own mic? (t_reply is defined
	// mic-to-mic in the paper: arrival of remote signal to arrival of own.)
	tOut := s.SpeakerIndexToTime(float64(n2)) + delta2
	actual := tOut - tArr

	// Eq. 6 bound plus a sample of quantization slack.
	bound := math.Abs(s.ReplyTimingError(tReply, m2, m1)) + 2.5/cfg.SampleRate
	if math.Abs(actual-tReply) > bound {
		t.Errorf("reply interval %g, want %g ± %g", actual, tReply, bound)
	}
	// Sanity: with these skews the error is microseconds, not samples.
	if math.Abs(actual-tReply) > 0.001 {
		t.Errorf("reply interval error %g s implausibly large", math.Abs(actual-tReply))
	}
}

func TestMicStreamsIndependent(t *testing.T) {
	s, _ := NewStack(defaultCfg())
	s.Mic(0)[100] = 1
	if s.Mic(1)[100] != 0 {
		t.Error("mic streams must be independent")
	}
}

// TestPooledStackReuseNoAliasing simulates consecutive trials on one
// worker: a released stack's buffers return to the pool and the next
// stack reuses them, but the new trial must observe fully zeroed streams —
// no samples bleeding across trials.
func TestPooledStackReuseNoAliasing(t *testing.T) {
	for trial := 0; trial < 3; trial++ {
		s, err := NewStack(defaultCfg())
		if err != nil {
			t.Fatal(err)
		}
		for _, stream := range [][]float64{s.speaker, s.Mic(0), s.Mic(1)} {
			for i, v := range stream {
				if v != 0 {
					t.Fatalf("trial %d: reused buffer dirty at %d (%g)", trial, i, v)
				}
			}
		}
		// Leave trial residue everywhere before handing buffers back.
		for _, stream := range [][]float64{s.speaker, s.Mic(0), s.Mic(1)} {
			for i := range stream {
				stream[i] = float64(trial + 1)
			}
		}
		s.Release()
	}
}

// TestConcurrentStacksShareNothing: two live stacks (concurrent trials on
// different workers) must never alias buffers even though both draw from
// the shared pool.
func TestConcurrentStacksShareNothing(t *testing.T) {
	a, _ := NewStack(defaultCfg())
	b, _ := NewStack(defaultCfg())
	a.speaker[7] = 42
	a.Mic(0)[7] = 43
	a.Mic(1)[7] = 44
	if b.speaker[7] != 0 || b.Mic(0)[7] != 0 || b.Mic(1)[7] != 0 {
		t.Error("live stacks alias pooled buffers")
	}
	a.Release()
	b.Release()
}

func TestReleaseIdempotentAndInert(t *testing.T) {
	s, _ := NewStack(defaultCfg())
	s.Release()
	s.Release() // double release must be safe (and must not double-pool)
	if s.StreamLen() != 0 {
		t.Errorf("released stack StreamLen = %d", s.StreamLen())
	}
	if s.speaker != nil || s.Mic(0) != nil {
		t.Error("released stack should expose no streams")
	}
	// A double release must not have put the same buffer in the pool
	// twice: two fresh stacks must still be independent.
	a, _ := NewStack(defaultCfg())
	b, _ := NewStack(defaultCfg())
	a.speaker[3] = 9
	if b.speaker[3] != 0 {
		t.Error("double release caused buffer sharing")
	}
	a.Release()
	b.Release()
}

func TestMicChunksCoversStream(t *testing.T) {
	s, _ := NewStack(defaultCfg())
	defer s.Release()
	mic := s.Mic(0)
	for i := range mic {
		mic[i] = float64(i)
	}
	for _, chunk := range []int{1, 7, 1024, len(mic), len(mic) + 5} {
		var got []float64
		n := 0
		for c := range s.MicChunks(0, chunk) {
			if len(c) > chunk {
				t.Fatalf("chunk %d: yielded %d samples", chunk, len(c))
			}
			got = append(got, c...)
			n++
		}
		if len(got) != len(mic) {
			t.Fatalf("chunk %d: reassembled %d samples, want %d", chunk, len(got), len(mic))
		}
		for i, v := range got {
			if v != mic[i] {
				t.Fatalf("chunk %d: sample %d = %g, want %g", chunk, i, v, mic[i])
			}
		}
		if want := (len(mic) + chunk - 1) / chunk; n != want {
			t.Fatalf("chunk %d: %d chunks, want %d", chunk, n, want)
		}
	}
	// Early break must stop cleanly; bad chunk sizes yield nothing.
	for c := range s.MicChunks(0, 4096) {
		_ = c
		break
	}
	for range s.MicChunks(0, 0) {
		t.Fatal("chunk 0 must yield nothing")
	}
	released, _ := NewStack(defaultCfg())
	released.Release()
	for range released.MicChunks(0, 1024) {
		t.Fatal("released stack must yield nothing")
	}
}

func TestMicChunksRangeWindow(t *testing.T) {
	s, _ := NewStack(defaultCfg())
	defer s.Release()
	mic := s.Mic(0)
	for i := range mic {
		mic[i] = float64(i)
	}
	reassemble := func(from, to, chunk int) []float64 {
		var got []float64
		for c := range s.MicChunksRange(0, from, to, chunk) {
			if len(c) > chunk {
				t.Fatalf("[%d,%d) chunk %d: yielded %d samples", from, to, chunk, len(c))
			}
			got = append(got, c...)
		}
		return got
	}
	cases := []struct{ from, to int }{
		{0, len(mic)},             // full stream: must equal MicChunks
		{1000, 5000},              // interior window
		{-50, 300},                // clipped start
		{len(mic) - 100, 1 << 30}, // clipped end
	}
	for _, tc := range cases {
		for _, chunk := range []int{1, 511, 4096, 1 << 30} {
			got := reassemble(tc.from, tc.to, chunk)
			from, to := tc.from, tc.to
			if from < 0 {
				from = 0
			}
			if to > len(mic) {
				to = len(mic)
			}
			if len(got) != to-from {
				t.Fatalf("[%d,%d) chunk %d: %d samples, want %d", tc.from, tc.to, chunk, len(got), to-from)
			}
			for i, v := range got {
				if v != mic[from+i] {
					t.Fatalf("[%d,%d) chunk %d: sample %d = %g, want %g", tc.from, tc.to, chunk, i, v, mic[from+i])
				}
			}
		}
	}
	// Degenerate windows and chunk sizes yield nothing.
	if got := reassemble(5000, 1000, 64); got != nil {
		t.Fatal("inverted window must yield nothing")
	}
	if got := reassemble(100, 200, 0); got != nil {
		t.Fatal("chunk 0 must yield nothing")
	}
	// Early break stops cleanly.
	for range s.MicChunksRange(0, 0, 10000, 128) {
		break
	}
}
