package main

import (
	"fmt"
	"math"
	"time"

	"uwpos/internal/channel"
	"uwpos/internal/dsp"
	"uwpos/internal/engine"
	"uwpos/internal/ingest"
	"uwpos/internal/ranging"
	"uwpos/internal/sig"
)

const (
	rxChunk    = 4096 // samples per Feed: the OpenSL ES-like grain sim uses
	rxLead     = 0.25 // s of ambient noise before the first packet
	rxSpacing  = 0.9  // s between packet starts
	rxTail     = 0.5  // s after the last packet starts
	rxTxAmp    = 0.8  // source amplitude at 1 m, as sim's default
	rxMatchTol = 0.02 // s: a detection within this of a packet's direct arrival finds it
)

// rxRecordings is how many recordings a set-up renders: two per dock
// receiver, with independent channel and noise draws.
const rxRecordings = 10

var receiverWorkload = workload{
	name:   "receiver-stream",
	pinned: true,
	why:    "the phone's real-time receive path alone: prefilter, preamble bank and PN validation per 4096-sample buffer, with no rendering timed",
	setup: func(cfg setupConfig) (instance, error) {
		r := &rxInstance{det: ranging.NewDetector(sig.DefaultParams(), ranging.DetectorConfig{})}
		n := rxRecordings
		if cfg.smoke {
			n = 1
		}
		for i := 0; i < n; i++ {
			rec := newRecording(channel.Dock(), i%5, cfg.seed, i)
			rec.want = r.det.Detect(rec.mics[0])
			r.recs = append(r.recs, rec)
		}
		// Warm-up: one streaming pass over the first recording.
		if got := feedAll(r.det.Stream(), r.recs[0].mics[0]); !sameDetections(got, r.recs[0].want) {
			return nil, fmt.Errorf("warm-up: streaming detections differ from Detect")
		}
		return r, nil
	},
}

// recording is what one dock device hears while the other four each send
// one ranging packet (preamble + MFSK IDs), through the dock channel with
// multipath, surface jitter, scattering and ambient noise. Set-up renders
// the first microphone; the second, which only the refine probe reads, is
// rendered on demand from its own random stream, under the same surface
// jitter.
type recording struct {
	env     *channel.Environment
	rx      int
	seed    int64
	index   int
	jitter  []channel.SurfaceJitter // per packet, shared by both microphones
	mics    [][]float64
	arrival []float64 // direct-path arrival sample per packet at mic 1
	want    []ranging.Detection
}

// newRecording renders the first microphone of recording index, heard by
// dock device rx, from engine.Rand(seed, 2*index).
func newRecording(env *channel.Environment, rx int, seed int64, index int) *recording {
	r := &recording{env: env, rx: rx, seed: seed, index: index}
	r.mics = append(r.mics, r.render(0))
	return r
}

// secondMic renders the second microphone once and returns it.
func (r *recording) secondMic() []float64 {
	if len(r.mics) < 2 {
		r.mics = append(r.mics, r.render(1))
	}
	return r.mics[1]
}

// render synthesizes microphone m with public channel and sig calls.
func (r *recording) render(m int) []float64 {
	rng := engine.Rand(r.seed, 2*r.index+m)
	p := sig.DefaultParams()
	fs := p.SampleRate
	cfg := dockTestbed(r.env)
	n := len(cfg.Devices)
	out := make([]float64, int((rxLead+float64(n-2)*rxSpacing+rxTail)*fs))
	dev := cfg.Devices[r.rx]
	mic := dev.Model.MicWorldPositions(dev.Pos, dev.Orient)[m]
	k := 0
	for tx := 0; tx < n; tx++ {
		if tx == r.rx {
			continue
		}
		src := cfg.Devices[tx]
		spk := src.Model.SpeakerWorldPosition(src.Pos, src.Orient)
		start := int((rxLead + float64(k)*rxSpacing) * fs)
		if m == 0 {
			r.jitter = append(r.jitter, r.env.DrawSurfaceJitter(rng, 3, spk.Dist(dev.Pos)))
			r.arrival = append(r.arrival, float64(start)+r.env.DirectDelay(spk, mic)*fs)
		}
		taps := r.env.ImpulseResponse(spk, mic, channel.ImpulseOptions{MaxOrder: 3})
		taps = r.env.WithScatter(r.jitter[k].Apply(taps), rng)
		for i := range taps {
			taps[i].Amplitude *= rxTxAmp
		}
		channel.Render(out, packetWave(p, n, tx), taps, start, fs)
		k++
	}
	r.env.AddNoise(out, fs, rng)
	return out
}

// packetWave is a sim-style message: the shared preamble followed by the
// sender's MFSK ID and its sync-source ID (0, the leader).
func packetWave(p sig.Params, n, id int) []float64 {
	pre := sig.SharedPreamble(p)
	idLen := int(0.055 * p.SampleRate)
	mfsk := sig.NewMFSK(n, p.SampleRate)
	out := append([]float64(nil), pre...)
	out = append(out, mfsk.EncodeID(id, idLen/2)...)
	return append(out, mfsk.EncodeID(0, idLen-idLen/2)...)
}

// feedAll streams a recording through a session in rxChunk buffers.
func feedAll(sd *ranging.StreamDetector, x []float64) []ranging.Detection {
	for off := 0; off < len(x); off += rxChunk {
		sd.Feed(x[off:min(off+rxChunk, len(x))])
	}
	return sd.Flush()
}

func sameDetections(a, b []ranging.Detection) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].CoarseIndex != b[i].CoarseIndex ||
			math.Float64bits(a[i].CorrPeak) != math.Float64bits(b[i].CorrPeak) ||
			math.Float64bits(a[i].AutoCorr) != math.Float64bits(b[i].AutoCorr) {
			return false
		}
	}
	return true
}

type rxInstance struct {
	det  *ranging.Detector
	recs []*recording

	checked []ranging.Detection // checked pass: every recording's detections
	found   int                 // checked pass: packets with a detection
	packets int

	// traced phase only
	meter      *ingest.Meter
	transforms uint64
	buffers    int
}

func (r *rxInstance) run(p phase) *recorder {
	rec := &recorder{ops: make([]time.Duration, 0, 1<<15)}
	var bare *ranging.Detector // the no-prefilter probe
	if p.tr != nil {
		r.meter = ingest.NewMeter(0)
		bare = ranging.NewDetector(sig.DefaultParams(), ranging.DetectorConfig{DisablePrefilter: true})
	}
	op := 0
	for pass := 0; ; pass++ {
		for _, x := range r.recs {
			if pass > 0 && !time.Now().Before(p.deadline) {
				return rec
			}
			mic := x.mics[0]
			var sd *ranging.StreamDetector
			var tf0 uint64
			if p.tr != nil {
				sd, tf0 = r.det.StreamWith(r.meter), dsp.BankForwardTransforms()
			} else {
				sd = r.det.Stream()
			}
			for off := 0; off < len(mic); off += rxChunk {
				buf := mic[off:min(off+rxChunk, len(mic))]
				rec.attempted++
				start := time.Now()
				s := p.tr.begin("ingest.Feed", -1, op)
				sd.Feed(buf)
				p.tr.end(s)
				rec.ops = append(rec.ops, time.Since(start))
				op++
			}
			s := p.tr.begin("ranging.Flush", -1, op-1)
			got := sd.Flush()
			p.tr.end(s)
			if !sameDetections(got, x.want) {
				rec.fail("receiver %d: streaming detections differ from Detect (%d vs %d)", x.rx, len(got), len(x.want))
			}
			if p.first && pass == 0 {
				r.checked = append(r.checked, got...)
				r.packets += len(x.arrival)
				r.found += matched(got, x.arrival)
			}
			if p.tr != nil {
				r.transforms += dsp.BankForwardTransforms() - tf0
				r.buffers += (len(mic) + rxChunk - 1) / rxChunk
				probe := bare.Stream()
				for off := 0; off < len(mic); off += rxChunk {
					s := p.tr.begin("probe.feed.noprefilter", -1, op)
					probe.Feed(mic[off:min(off+rxChunk, len(mic))])
					p.tr.end(s)
				}
				probe.Flush()
			}
		}
	}
}

// matched counts packets with a detection within rxMatchTol of their
// direct-path arrival.
func matched(dets []ranging.Detection, arrivals []float64) int {
	tol := rxMatchTol * sig.DefaultParams().SampleRate
	n := 0
	for _, a := range arrivals {
		for _, d := range dets {
			if math.Abs(float64(d.CoarseIndex)-a) <= tol {
				n++
				break
			}
		}
	}
	return n
}

func (r *rxInstance) verify() verdict {
	var v verdict
	h := newDigest()
	for _, d := range r.checked {
		h.ints(d.CoarseIndex)
		h.floats(d.CorrPeak, d.AutoCorr)
	}
	v.digest = h.sum()
	v.quality = []metric{{name: "ranging.detect_recall", value: float64(r.found) / float64(r.packets), unit: "frac",
		note: fmt.Sprintf("%d of %d packets detected", r.found, r.packets)}}
	return v
}

func (r *rxInstance) layers(tr *tracer, rec *recorder) []metric {
	feeds := summary("ingest.Feed", tr.durations("ingest.Feed"))
	bare := summary("noprefilter", tr.durations("probe.feed.noprefilter"))
	rep := r.meter.Report()

	// Refine every detection against both microphones, outside the phase.
	ranger := ranging.NewRanger(sig.DefaultParams(), ranging.DetectorConfig{}, ranging.DirectPathConfig{})
	var refine []time.Duration
	for _, x := range r.recs {
		for _, d := range x.want {
			start := time.Now()
			_, err := ranger.RefineArrival(x.mics[0], x.secondMic(), d)
			if err == nil {
				refine = append(refine, time.Since(start))
			}
		}
	}
	return []metric{
		{name: "ingest.busy_ms", value: rep.ProcSeconds * 1e3 / float64(rep.Buffers), unit: "ms",
			note: "per buffer, from an ingest.Meter"},
		{name: "ingest.buffers", value: float64(rep.Buffers), unit: "count"},
		{name: "ingest.rtf_p99", value: rep.P99RTF, unit: "ratio"},
		{name: "ingest.prefilter_ms", value: feeds.value - bare.value, unit: "ms",
			note: fmt.Sprintf("Feed %s minus Feed without prefilter", feeds.note)},
		{name: "dsp.transforms_per_buffer", value: float64(r.transforms) / float64(r.buffers), unit: "count"},
		summary("ranging.flush_ms", tr.durations("ranging.Flush")),
		summary("ranging.refine_ms", refine),
	}
}

func (r *rxInstance) close() {}
