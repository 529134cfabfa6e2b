// Package audio models the low-level audio path of a smart device: a
// speaker output stream and one microphone input stream per mic, each
// driven by its own converter clock with an unknown stream-start time and a
// ppm-scale sampling-rate error.
//
// This reproduces the paper's appendix ("Low-level audio timing", Fig. 21):
// the OS fills both buffers independently, so a device never knows the wall
// time of a buffer index — it can only (a) measure the speaker↔mic index
// offset once with a self-calibration signal and (b) schedule replies by
// pure index arithmetic, n₂ = m₂ + (n₁ − m₁) + fs·t_reply.
//
// The simulation layer is the only code that knows absolute time; devices
// must work exclusively through index arithmetic, exactly like the Android
// implementation works through OpenSL ES buffer callbacks.
package audio

import (
	"fmt"
	"iter"
	"math"

	"uwpos/internal/dsp"
)

// Config describes one device's audio clocks.
type Config struct {
	SampleRate   float64 // nominal fs shared by both converters (44.1 kHz)
	SpeakerSkew  float64 // α: true speaker rate is fs/(1−α); |α| ≪ 1
	MicSkew      float64 // β: true microphone rate is fs/(1−β)
	SpeakerStart float64 // absolute time of speaker-stream sample 0 (sim-only knowledge)
	MicStart     float64 // absolute time of microphone-stream sample 0 (sim-only knowledge)
	NumMics      int     // microphone count (2 for phones, 3 for the watch)
	Duration     float64 // seconds of stream to allocate
}

// Stack is the audio-path state of one device.
type Stack struct {
	cfg     Config
	speaker []float64   // speaker output stream (device-writable)
	mics    [][]float64 // microphone input streams (channel-writable)

	calibrated  bool
	indexOffset int // Δn = n₁ − m₁ measured at self-calibration
}

// NewStack allocates the streams. Mic streams share one converter clock
// (they are channels of the same ADC) but have distinct spatial positions,
// which the device layer tracks.
//
// Stream buffers come zeroed from the shared internal/dsp scratch pool —
// they are by far the largest per-trial allocation (seconds of audio ×
// (1 + NumMics) streams × devices), so under the parallel trial engine a
// steady-state worker reuses the same slabs round after round. Call
// Release once the round's receiver processing is done to hand them back;
// a dropped stack merely costs a future allocation.
func NewStack(cfg Config) (*Stack, error) {
	if cfg.SampleRate <= 0 {
		return nil, fmt.Errorf("audio: sample rate %g must be positive", cfg.SampleRate)
	}
	if cfg.NumMics <= 0 {
		return nil, fmt.Errorf("audio: need at least one microphone")
	}
	if cfg.Duration <= 0 {
		return nil, fmt.Errorf("audio: duration %g must be positive", cfg.Duration)
	}
	if math.Abs(cfg.SpeakerSkew) > 0.01 || math.Abs(cfg.MicSkew) > 0.01 {
		return nil, fmt.Errorf("audio: clock skew beyond 1%% is not a ppm model")
	}
	n := int(cfg.Duration*cfg.SampleRate) + 1
	s := &Stack{
		cfg:     cfg,
		speaker: dsp.GetF64(n),
		mics:    make([][]float64, cfg.NumMics),
	}
	for i := range s.mics {
		s.mics[i] = dsp.GetF64(n)
	}
	return s, nil
}

// Release returns the stream buffers to the shared scratch pool. The
// stack must not be used afterwards (stream accessors return nil and
// StreamLen reports 0). Safe to call more than once.
func (s *Stack) Release() {
	if s.speaker == nil {
		return
	}
	dsp.PutF64(s.speaker)
	s.speaker = nil
	for i, m := range s.mics {
		dsp.PutF64(m)
		s.mics[i] = nil
	}
}

// NumMics returns the microphone count.
func (s *Stack) NumMics() int { return len(s.mics) }

// StreamLen returns the allocated stream length in samples.
func (s *Stack) StreamLen() int { return len(s.speaker) }

// SpeakerRate returns the true speaker converter rate fs/(1−α).
func (s *Stack) SpeakerRate() float64 { return s.cfg.SampleRate / (1 - s.cfg.SpeakerSkew) }

// MicRate returns the true microphone converter rate fs/(1−β).
func (s *Stack) MicRate() float64 { return s.cfg.SampleRate / (1 - s.cfg.MicSkew) }

// SpeakerIndexToTime maps a speaker-stream index to absolute time.
// Simulation-side only: devices never call this.
func (s *Stack) SpeakerIndexToTime(n float64) float64 {
	return s.cfg.SpeakerStart + n/s.SpeakerRate()
}

// TimeToMicIndex maps absolute time to a microphone-stream index.
// Simulation-side only.
func (s *Stack) TimeToMicIndex(t float64) float64 {
	return (t - s.cfg.MicStart) * s.MicRate()
}

// WriteSpeaker writes wave into the speaker stream starting at index n,
// clipping to the allocated range. This is the "write audio samples to a
// future speaker buffer" primitive of the OpenSL ES layer. It returns the
// number of samples written.
func (s *Stack) WriteSpeaker(n int, wave []float64) int {
	if n < 0 {
		wave = wave[min(-n, len(wave)):]
		n = 0
	}
	written := 0
	for i, v := range wave {
		idx := n + i
		if idx >= len(s.speaker) {
			break
		}
		s.speaker[idx] += v
		written++
	}
	return written
}

// Mic returns the i-th microphone stream. The channel adds arrivals into
// it; the device's receiver pipeline reads it.
func (s *Stack) Mic(i int) []float64 { return s.mics[i] }

// MicChunks iterates over mic i's stream in successive chunk-sample
// sub-slices (the last may be shorter) — the shape in which the OS
// actually delivers audio to the receiver (OpenSL ES buffer callbacks),
// and the natural feed for the streaming detection pipeline. The yielded
// slices alias the live stream; treat them as read-only. A released
// stack or non-positive chunk yields nothing.
func (s *Stack) MicChunks(i, chunk int) iter.Seq[[]float64] {
	return s.MicChunksRange(i, 0, s.StreamLen(), chunk)
}

// MicChunksRange is MicChunks restricted to the half-open sample window
// [from, to) — the shape in which the receiver replays a bounded stretch
// of the stream into an ingest pipeline (the calibration window, or the
// post-transmission tail a baseline scans). Bounds are clipped to the
// stream; an empty or inverted window yields nothing.
func (s *Stack) MicChunksRange(i, from, to, chunk int) iter.Seq[[]float64] {
	return func(yield func([]float64) bool) {
		if chunk <= 0 {
			return
		}
		stream := s.Mic(i)
		if to > len(stream) {
			to = len(stream)
		}
		if from < 0 {
			from = 0
		}
		for off := from; off < to; off += chunk {
			end := off + chunk
			if end > to {
				end = to
			}
			if !yield(stream[off:end]) {
				return
			}
		}
	}
}

// Calibrate stores the measured speaker↔mic index offset Δn = n₁ − m₁,
// where the device wrote its calibration signal at speaker index n₁ and
// detected it at microphone index m₁. After calibration the device can
// schedule precisely timed replies.
func (s *Stack) Calibrate(n1, m1 int) {
	s.indexOffset = n1 - m1
	s.calibrated = true
}

// IndexOffset returns the calibrated Δn (0 before calibration).
func (s *Stack) IndexOffset() int { return s.indexOffset }

// ReplyIndex computes the speaker index n₂ at which to write a reply so
// that it leaves the device t_reply seconds after the triggering signal
// arrived at mic index m₂ (Eq. 4 of the paper):
//
//	n₂ = m₂ + Δn + fs·t_reply
//
// It panics if the stack has not been calibrated — replying blind is a
// protocol-breaking programmer error.
func (s *Stack) ReplyIndex(m2 int, tReply float64) int {
	if !s.calibrated {
		panic("audio: ReplyIndex before calibration")
	}
	return m2 + s.indexOffset + int(math.Round(s.cfg.SampleRate*tReply))
}
