package ranging

import (
	"math"
	"sort"

	"uwpos/internal/dsp"
	"uwpos/internal/ingest"
	"uwpos/internal/sig"
)

// StreamDetector runs preamble detection on audio as the OS delivers it,
// buffer by buffer, instead of on a complete per-round stream. It is an
// ingest.Consumer: the band-pass prefilter and the overlap-save
// correlation run in an ingest.Pipeline (one shared forward transform per
// block, fanned out to every consumer on the stream), while the detector
// carries the peak-scan lookahead, the PN-validation window and the
// candidate set across buffer boundaries — so a preamble is found no
// matter how the stream is cut, including a buffer boundary landing in
// the middle of the preamble or right on the correlation peak.
//
// The session is built so that the final detection set is exactly what
// the one-shot Detector computes on the concatenated stream:
//
//   - the pipeline's prefilter replicates sig.BandLimit's direct FIR
//     arithmetic with carried history (bit-identical for every chunk
//     partition);
//   - correlation runs on a dsp.BankStream whose overlap-save blocks sit
//     on a fixed absolute grid (bit-identical for every partition);
//   - candidate peaks are decided with one lag of lookahead, so a peak on
//     a chunk boundary is reported exactly once;
//   - MinSeparation dedup is applied over the whole candidate set each
//     time, so a provisional detection is replaced when a higher peak
//     within MinSeparation arrives in a later chunk.
//
// A session created by Detector.Stream owns its pipeline: Feed pushes
// buffers, Flush closes the stream and returns the final set. A session
// created by Detector.Consumer is driven by an external shared pipeline
// instead — register it, push buffers to that pipeline, and read
// Detections after the pipeline closes. Detections reports the current
// (provisional) set at any time. Indices are global sample positions in
// the full stream. A session is single-stream and not safe for
// concurrent use; sessions share the process-wide template matcher
// read-only, so any number of sessions may run concurrently.
type StreamDetector struct {
	params sig.Params
	cfg    DetectorConfig
	tmpl   int              // bank template index this session consumes
	pipe   *ingest.Pipeline // standalone mode only; nil when externally driven

	// Filtered samples retained for PN validation: win[0] holds global
	// filtered index winStart. The window is trimmed to the earliest
	// still-undecided correlation lag, bounding it at one FFT block plus
	// one chunk regardless of stream length.
	win      []float64
	winStart int

	// Peak scan with one-lag lookahead over the normalized correlation.
	seen     int // correlation lags scanned (global index of the next lag)
	prevVal  float64
	pendVal  float64
	havePend bool

	cands []candidate

	// topVals tracks the maxCandidates strongest candidate peaks seen so
	// far (an unordered min-tracked set); only candidates that enter it
	// are PN-validated eagerly. Any candidate in the final strongest-
	// maxCandidates selection was necessarily in this set when it was
	// discovered, so every selectable candidate carries a real score while
	// weak candidates skip the (comparatively costly) validation.
	topVals []float64

	flushed bool
	final   []Detection
}

// candidate is a gated correlation peak with its PN validation score
// (NaN when the peak never ranked high enough to be validated — such a
// candidate can never be selected).
type candidate struct {
	idx   int
	corr  float64
	score float64
}

// newStreamDetector builds a standalone session: a consumer-mode detector
// registered on its own single-template low-latency pipeline (with the
// band-pass prefilter unless disabled, and the optional deadline meter).
func newStreamDetector(p sig.Params, cfg DetectorConfig, matcher *dsp.Matcher, meter *ingest.Meter) *StreamDetector {
	sd := newStreamConsumer(p, cfg, 0)
	icfg := ingest.Config{
		Bank:       dsp.NewMatcherBankLowLatency(matcher),
		SampleRate: p.SampleRate,
		Meter:      meter,
	}
	if !cfg.DisablePrefilter {
		icfg.Prefilter = sig.BandLimitFIR(p.BandLowHz, p.BandHighHz, p.SampleRate)
	}
	sd.pipe = ingest.New(icfg)
	sd.pipe.Register(sd)
	return sd
}

// newStreamConsumer builds a consumer-mode session over bank template
// index template (no pipeline of its own).
func newStreamConsumer(p sig.Params, cfg DetectorConfig, template int) *StreamDetector {
	return &StreamDetector{params: p, cfg: cfg, tmpl: template}
}

// Feed consumes the next audio chunk (any length, including empty) by
// pushing it through the session's own pipeline. It panics on a
// consumer-mode session — push to the driving pipeline instead.
func (s *StreamDetector) Feed(chunk []float64) {
	if s.flushed {
		panic("ranging: StreamDetector.Feed after Flush")
	}
	if s.pipe == nil {
		panic("ranging: Feed on a consumer-mode StreamDetector (push to its pipeline)")
	}
	s.pipe.Push(chunk)
}

// Flush ends the stream and returns the final detection set — identical
// to Detector.Detect on the concatenation of everything fed. The session
// cannot be fed afterwards; Detections keeps returning the final set.
// It panics on a consumer-mode session — close the driving pipeline
// instead.
func (s *StreamDetector) Flush() []Detection {
	if s.flushed {
		return s.final
	}
	if s.pipe == nil {
		panic("ranging: Flush on a consumer-mode StreamDetector (close its pipeline)")
	}
	s.pipe.Close()
	return s.final
}

// Detections returns the detection set as of the audio consumed so far,
// sorted by index. Entries are provisional until the stream ends: a
// stronger peak within MinSeparation arriving in a later chunk replaces
// its weaker neighbour, exactly as the one-shot strongest-first dedup
// would have.
func (s *StreamDetector) Detections() []Detection {
	if s.flushed {
		return s.final
	}
	return s.selectCurrent()
}

// Chunk implements ingest.ChunkConsumer: the band-limited samples are
// retained (until decided) for PN validation of candidate peaks.
func (s *StreamDetector) Chunk(samples []float64) {
	s.win = append(s.win, samples...)
}

// Lags implements ingest.Consumer: newly computable correlation lags of
// the session's template advance the peak scan.
func (s *StreamDetector) Lags(template int, lags []float64) {
	if template != s.tmpl {
		return
	}
	s.scan(lags, false)
	s.trimWin()
}

// Finish implements ingest.Consumer: the last lag is decided against its
// left neighbour only and the final detection set is selected.
func (s *StreamDetector) Finish() {
	if s.flushed {
		return
	}
	s.scan(nil, true)
	s.flushed = true
	s.final = s.selectCurrent()
	s.win, s.cands, s.topVals = nil, nil, nil
}

// scan advances the peak decision over newly emitted correlation lags.
// Each lag is decided once its right neighbour exists (final mode decides
// the last lag against its left neighbour only), replicating
// dsp.FindPeaks' predicate over the full correlation array.
func (s *StreamDetector) scan(lags []float64, final bool) {
	for _, v := range lags {
		if s.havePend {
			s.decide(s.seen-1, s.pendVal, v, true)
			s.prevVal = s.pendVal
		}
		s.pendVal = v
		s.havePend = true
		s.seen++
	}
	if final && s.havePend {
		s.decide(s.seen-1, s.pendVal, 0, false)
		s.havePend = false
	}
}

// decide applies the FindPeaks predicate to lag i and, on a candidate,
// gates it through the top-maxCandidates tracker for eager validation.
func (s *StreamDetector) decide(i int, x, right float64, hasRight bool) {
	if x < s.cfg.CandidateThreshold {
		return
	}
	if i > 0 && x < s.prevVal {
		return
	}
	if hasRight && x < right {
		return
	}
	if i > 0 && x == s.prevVal {
		return // interior of a plateau: FindPeaks reports the first index
	}
	score := math.NaN()
	if s.admitTop(x) {
		score = validatePN(s.params, s.win, i-s.winStart)
	}
	s.cands = append(s.cands, candidate{idx: i, corr: x, score: score})
}

// admitTop reports whether value x ranks among the maxCandidates
// strongest seen so far, maintaining the tracked set.
func (s *StreamDetector) admitTop(x float64) bool {
	if len(s.topVals) < maxCandidates {
		s.topVals = append(s.topVals, x)
		return true
	}
	lo := 0
	for k, v := range s.topVals {
		if v < s.topVals[lo] {
			lo = k
		}
	}
	if x < s.topVals[lo] {
		return false
	}
	s.topVals[lo] = x
	return true
}

// selectCurrent applies the one-shot selection semantics to the candidate
// set so far: strongest first, top maxCandidates, validation threshold,
// MinSeparation greedy dedup, index-sorted output.
func (s *StreamDetector) selectCurrent() []Detection {
	if len(s.cands) == 0 {
		return nil
	}
	cands := append([]candidate(nil), s.cands...)
	sort.Slice(cands, func(i, j int) bool { return cands[i].corr > cands[j].corr })
	if len(cands) > maxCandidates {
		cands = cands[:maxCandidates]
	}
	var out []Detection
	for _, c := range cands {
		if c.score < autoCorrThreshold || math.IsNaN(c.score) {
			continue
		}
		dup := false
		for _, prev := range out {
			if abs(prev.CoarseIndex-c.idx) < s.cfg.MinSeparation {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		out = append(out, Detection{CoarseIndex: c.idx, CorrPeak: c.corr, AutoCorr: c.score})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].CoarseIndex < out[j].CoarseIndex })
	return out
}

// trimWin drops validated-and-decided history from the filtered window,
// keeping everything from the earliest still-undecided lag onward.
func (s *StreamDetector) trimWin() {
	keepFrom := s.seen
	if s.havePend {
		keepFrom = s.seen - 1
	}
	if keepFrom <= s.winStart {
		return
	}
	off := keepFrom - s.winStart
	if off > len(s.win) {
		off = len(s.win)
	}
	s.win = s.win[:copy(s.win, s.win[off:])]
	s.winStart += off
}
