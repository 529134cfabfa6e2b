// Package ranging implements the receiver pipeline of §2.2: preamble
// detection (cross-correlation candidates validated by PN auto-correlation),
// least-squares channel estimation, and the dual-microphone joint direct-
// path search that turns channel profiles into time-of-arrival estimates.
// It also implements the two baselines the paper compares against —
// BeepBeep-style chirp correlation and CAT-style FMCW mixing — plus the
// per-subcarrier SNR estimator used for Fig. 22.
package ranging

import (
	"math"

	"uwpos/internal/dsp"
	"uwpos/internal/ingest"
	"uwpos/internal/sig"
)

// Detection is one validated preamble occurrence in a microphone stream.
type Detection struct {
	CoarseIndex int     // sample index of the preamble start (coarse sync)
	CorrPeak    float64 // normalized cross-correlation peak height
	AutoCorr    float64 // PN auto-correlation validation score in [−1, 1]
}

// DetectorConfig tunes preamble detection.
type DetectorConfig struct {
	// CandidateThreshold gates normalized cross-correlation peaks
	// considered as candidates (default 0.15 — deliberately permissive;
	// validation does the real work).
	CandidateThreshold float64
	// MinSeparation suppresses duplicate detections closer than this many
	// samples (default: half a preamble).
	MinSeparation int
	// DisablePrefilter skips the 1–5 kHz band-pass applied before
	// correlation and validation. The prefilter discards out-of-band
	// noise — roughly a 10 dB effective SNR gain against white ambient
	// noise — and is on by default, as any practical receiver would be.
	DisablePrefilter bool
}

const (
	// autoCorrThreshold is the PN auto-correlation acceptance level
	// (paper: 0.35).
	autoCorrThreshold = 0.35
	// maxCandidates bounds the PN validations per stream: only the
	// strongest candidates are scored and selectable.
	maxCandidates = 64
)

func (c *DetectorConfig) defaults(p sig.Params) {
	if c.CandidateThreshold == 0 {
		c.CandidateThreshold = 0.15
	}
	if c.MinSeparation == 0 {
		c.MinSeparation = p.PreambleLen() / 2
	}
}

// Detector finds ranging preambles in microphone streams.
type Detector struct {
	params  sig.Params
	cfg     DetectorConfig
	matcher *dsp.Matcher
}

// NewDetector builds a detector for the given preamble numerology.
func NewDetector(p sig.Params, cfg DetectorConfig) *Detector {
	cfg.defaults(p)
	// A detector is rebuilt for every device on every simulated trial,
	// but the template depends only on the Params, so all trials and all
	// engine workers share one matcher — the template is transformed once
	// per padded length for the whole process.
	return &Detector{params: p, cfg: cfg, matcher: sig.SharedMatcher("preamble", p, sig.SharedPreamble)}
}

// Detect scans the stream and returns validated detections sorted by index.
//
// Stage 1 (cross-correlation) proposes candidate offsets; underwater spiky
// noise produces abundant false candidates here (§2.2.1). Stage 2 validates
// each candidate by checking that the four received OFDM symbols, after
// unwinding the PN signs, are mutually coherent — noise bursts almost never
// replicate themselves four times at the symbol spacing.
//
// Detect is the one-shot view of the streaming pipeline: it feeds the
// whole stream through a StreamDetector as a single chunk. The streaming
// session computes correlation on a fixed absolute block grid, so chunked
// and one-shot detection agree bit for bit — the equivalence the
// streaming test harness enforces.
func (d *Detector) Detect(stream []float64) []Detection {
	sd := d.Stream()
	sd.Feed(stream)
	return sd.Flush()
}

// Stream opens a chunked detection session sharing this detector's
// configuration and precomputed matcher. See StreamDetector.
func (d *Detector) Stream() *StreamDetector {
	return d.StreamWith(nil)
}

// StreamWith opens a chunked detection session whose ingest pipeline
// reports per-buffer deadline headroom into meter (which may be shared
// across sessions and rounds). A nil meter disables the accounting —
// identical to Stream.
func (d *Detector) StreamWith(meter *ingest.Meter) *StreamDetector {
	return newStreamDetector(d.params, d.cfg, d.matcher, meter)
}

// Consumer opens a detection session in consumer mode, to be registered
// on an externally built ingest.Pipeline whose bank holds this detector's
// preamble template at index template. The caller's pipeline must apply
// the detector's band-pass prefilter itself (or build the detector with
// DisablePrefilter); the session reads correlation lags and filtered
// samples from the pipeline instead of owning one.
func (d *Detector) Consumer(template int) *StreamDetector {
	return newStreamConsumer(d.params, d.cfg, template)
}

// validatePN is the stage-2 scoring shared by the one-shot and streaming
// detectors: the mean pairwise correlation of the PN-corrected OFDM
// symbol bodies at the candidate start, each pair scored as
// dsp.SegmentCorrelation scores it, with each body's energy summed once.
func validatePN(p sig.Params, stream []float64, start int) float64 {
	if start < 0 || start+p.PreambleLen() > len(stream) {
		return 0
	}
	// One pooled slab holds every PN-corrected symbol body and, after
	// them, each body's energy; the correlations only read it.
	n, ns := p.SymbolLen, p.NumSymbols
	slab := dsp.GetF64(ns * (n + 1))
	defer dsp.PutF64(slab)
	energy := slab[ns*n:]
	for s := 0; s < ns; s++ {
		a, b := p.SymbolAt(s)
		seg := slab[s*n : (s+1)*n]
		copy(seg, stream[start+a:start+b])
		if p.PN[s] < 0 {
			for i := range seg {
				seg[i] = -seg[i]
			}
		}
		energy[s] = dsp.Dot(seg, seg)
	}
	var sum float64
	var count int
	for i := 0; i < ns; i++ {
		for j := i + 1; j < ns; j++ {
			var c float64
			if energy[i] != 0 && energy[j] != 0 {
				c = dsp.Dot(slab[i*n:(i+1)*n], slab[j*n:(j+1)*n]) / math.Sqrt(energy[i]*energy[j])
			}
			sum += c
			count++
		}
	}
	if count == 0 {
		return 0
	}
	return sum / float64(count)
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
