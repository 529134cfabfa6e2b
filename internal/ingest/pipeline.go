// Package ingest is the real-time audio front end of the receiver: a
// Pipeline accepts fixed-size sample buffers at audio-callback cadence —
// the shape in which OpenSL ES hands a phone its microphone stream — runs
// the optional band-pass prefilter and exactly one shared dsp.BankStream
// forward transform per correlation block, and fans the per-template
// normalized correlation lags out to every registered Consumer.
//
// Message detection, the calibration argmax and the BeepBeep/CAT
// baselines are all Consumers. In a simulated round each runs its own
// single-consumer pipeline, because each scans a different span of the
// stream with a different prefilter and block grid: detection on the
// low-latency grid behind the band-pass, calibration over the
// calibration window and the baselines over the reply tail on the
// throughput grid. Fanning one pipeline out to several consumers, one
// forward transform per block for all of them, is what the streaming
// experiment's shared-ingest row measures.
//
// An optional Meter measures each buffer's processing time against the
// buffer's real-time budget (audio duration × a configurable
// real-time-factor ceiling) and aggregates per-buffer headroom into
// streaming percentiles. Metering only observes: every buffer is
// processed whatever the verdict. With a nil Meter no clocks are read at
// all, so simulation hot paths stay free of timing syscalls and remain
// byte-deterministic.
//
// Steady state is allocation-free: the bank session reuses its emission
// buffers, the prefilter scratch is sized once, and the provided
// consumers (ArgMax, Collect with reserved capacity) never grow — the
// property the AllocsPerRun gate in pipeline_test.go enforces.
package ingest

import (
	"time"

	"uwpos/internal/dsp"
)

// Config assembles a Pipeline.
type Config struct {
	// Bank is the template bank driving the shared scan. Required. The
	// pipeline runs one session of it (MatcherBank.Stream), which emits
	// window-energy normalized correlation (values in [-1, 1]).
	Bank *dsp.MatcherBank
	// SampleRate (Hz) converts buffer lengths to audio durations for the
	// deadline budget. Required when Meter is set; otherwise unused.
	SampleRate float64
	// Prefilter, when non-nil, is an odd-length symmetric FIR applied to
	// the raw stream before correlation, with group-delay compensation and
	// a zero-filled tail — sample-for-sample the arithmetic of
	// sig.BandLimit, carried across buffer boundaries. Consumers then see
	// the band-limited stream exactly as a one-shot receiver would.
	Prefilter []float64
	// Meter, when non-nil, receives one deadline observation per Push.
	// A single Meter may be shared by many pipelines (sequentially) to
	// aggregate a whole round's ingest headroom.
	Meter *Meter
}

// Pipeline is one in-progress shared scan over one audio stream. Buffers
// go in via Push; correlation lags fan out to the registered consumers as
// they become computable. Close ends the stream, delivers every remaining
// lag and calls each consumer's Finish. A pipeline is single-stream and
// not safe for concurrent use.
type Pipeline struct {
	cfg       Config
	bs        *dsp.BankStream
	consumers []Consumer
	chunkCons []ChunkConsumer

	// Streaming band-pass prefilter state (nil fir when disabled):
	// filtered[n] = y[n+delay] with y the causal FIR output and zeros past
	// the end, replicating sig.BandLimit's group-delay compensation.
	fir     []float64
	delay   int
	tail    []float64 // last len(fir)-1 raw samples
	tailLen int
	rawFed  int
	fbuf    []float64 // filter scratch: tail ++ chunk
	fout    []float64 // filtered-output scratch

	closed bool
}

// New builds a pipeline over cfg.Bank. It panics on a nil bank, or on a
// Meter without a positive SampleRate (the budget would be undefined).
func New(cfg Config) *Pipeline {
	if cfg.Bank == nil {
		panic("ingest: Config.Bank is required")
	}
	if cfg.Meter != nil && cfg.SampleRate <= 0 {
		panic("ingest: Config.Meter needs a positive SampleRate")
	}
	p := &Pipeline{cfg: cfg, bs: cfg.Bank.Stream()}
	if len(cfg.Prefilter) > 0 {
		p.fir = cfg.Prefilter
		p.delay = (len(p.fir) - 1) / 2
		p.tail = make([]float64, len(p.fir)-1)
	}
	return p
}

// Register adds a consumer to the fan-out. Consumers implementing
// ChunkConsumer additionally receive every (filtered) sample buffer
// before the lags computed from it. Register before the first Push.
func (p *Pipeline) Register(c Consumer) {
	p.consumers = append(p.consumers, c)
	if cc, ok := c.(ChunkConsumer); ok {
		p.chunkCons = append(p.chunkCons, cc)
	}
}

// Push consumes the next audio buffer (any length, including empty):
// prefilter, one shared forward transform per completed correlation
// block, consumer fan-out. When a Meter is configured the buffer's
// processing time is measured against its real-time budget.
func (p *Pipeline) Push(buf []float64) {
	if p.closed {
		panic("ingest: Pipeline.Push after Close")
	}
	m := p.cfg.Meter
	var t0 time.Time
	if m != nil {
		t0 = m.now()
	}
	filt := buf
	if p.fir != nil {
		filt = p.filter(buf)
	}
	p.deliver(filt)
	if m != nil {
		m.observe(len(buf), float64(len(buf))/p.cfg.SampleRate, t0)
	}
}

// Close ends the stream: the prefilter's zero-filled tail and the bank
// session's remaining tail blocks are delivered, then every consumer's
// Finish runs. Close is idempotent; Push panics afterwards.
func (p *Pipeline) Close() {
	if p.closed {
		return
	}
	if p.fir != nil {
		// BandLimit zero-fills the last delay samples (the causal filter
		// output past the raw stream end is discarded with the group-delay
		// shift): emit them so lag counts match the one-shot path.
		zeros := min(p.delay, p.rawFed)
		p.deliver(make([]float64, zeros))
	}
	p.fanOut(p.bs.Flush())
	p.closed = true
	for _, c := range p.consumers {
		c.Finish()
	}
	p.fbuf, p.fout, p.tail = nil, nil, nil
}

// deliver hands one filtered buffer to the chunk consumers, advances the
// shared bank scan and fans the emitted lags out.
func (p *Pipeline) deliver(filt []float64) {
	for _, c := range p.chunkCons {
		c.Chunk(filt)
	}
	p.fanOut(p.bs.Feed(filt))
}

// fanOut delivers each template's non-empty lag row to every consumer.
// Rows alias bank-session buffers valid only for the duration of the
// call, so consumers reduce immediately or copy.
func (p *Pipeline) fanOut(rows [][]float64) {
	for i, row := range rows {
		if len(row) == 0 {
			continue
		}
		for _, c := range p.consumers {
			c.Lags(i, row)
		}
	}
}

// filter runs the streaming band-pass: the causal FIR kernel
// dsp.FilterFrom over the carried history ++ chunk, so every output gets
// the arithmetic of dsp.Filter over the whole stream, followed by the
// group-delay drop of the first delay outputs. The returned slice aliases
// pipeline scratch, valid until the next call.
func (p *Pipeline) filter(chunk []float64) []float64 {
	n := len(chunk)
	if cap(p.fbuf) < p.tailLen+n {
		p.fbuf = make([]float64, p.tailLen+n)
	}
	p.fbuf = p.fbuf[:p.tailLen+n]
	copy(p.fbuf, p.tail[:p.tailLen])
	copy(p.fbuf[p.tailLen:], chunk)
	if cap(p.fout) < n {
		p.fout = make([]float64, n)
	}
	p.fout = p.fout[:n]
	// The history holds min(len(fir)-1, rawFed) samples, so the window of
	// fbuf[tailLen+j] reaches before fbuf[0] exactly when the stream's own
	// output index rawFed+j is still in the filter's warm-up.
	dsp.FilterFrom(p.fout, p.fir, p.fbuf, p.tailLen)
	p.rawFed += n
	keep := len(p.fir) - 1
	if keep > p.rawFed {
		keep = p.rawFed
	}
	copy(p.tail, p.fbuf[len(p.fbuf)-keep:])
	p.tailLen = keep
	// Group-delay compensation: causal outputs before index delay fall off
	// the front of the one-shot BandLimit result.
	skip := p.delay - (p.rawFed - n)
	if skip < 0 {
		skip = 0
	}
	if skip > n {
		skip = n
	}
	return p.fout[skip:]
}
