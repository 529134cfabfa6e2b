package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"uwpos/internal/channel"
	"uwpos/internal/core"
	"uwpos/internal/device"
	"uwpos/internal/dsp"
	"uwpos/internal/engine"
	"uwpos/internal/geom"
	"uwpos/internal/ingest"
	"uwpos/internal/sim"
)

// dockChecked is round-dock5's checked pass: the rounds every run
// completes, whatever --seconds says, so its digest and errors repeat.
const dockChecked = 2

var dockWorkload = workload{
	name:   "round-dock5",
	pinned: true,
	why:    "the paper's five-phone dock round end to end; channel rendering and ingest dominate it, localization is 0.01% of it",
	setup: func(cfg setupConfig) (instance, error) {
		d := &dockInstance{seed: cfg.seed, scenario: func() sim.Config { return dockTestbed(channel.Dock()) }, checked: dockChecked}
		if cfg.smoke {
			// Tests: the cheaper pool trio, one round, no warm-up.
			d.scenario, d.checked = poolTrioConfig, 1
			return d, nil
		}
		// Warm-up: one pool round at a fixed seed builds the shared
		// matchers, transform plans and buffer pools the dock rounds use.
		warm := poolTrioConfig()
		warm.Seed = 1
		nw, err := sim.NewNetwork(warm)
		if err == nil {
			_, err = nw.RunRound(context.Background())
		}
		if err != nil {
			return nil, err
		}
		return d, nil
	},
}

// dockTestbed is the Fig. 17 deployment: five Galaxy S9s at the dock
// with link distances to the leader spanning 3–25 m, as the fig18–20
// experiments place them.
func dockTestbed(env *channel.Environment) sim.Config {
	depthCap := env.BottomDepthM - 0.5
	d := func(z float64) float64 { return math.Min(z, depthCap) }
	specs := []sim.DeviceSpec{
		{Model: device.GalaxyS9(), Pos: geom.Vec3{X: 0, Y: 0, Z: d(2.0)}},
		{Model: device.GalaxyS9(), Pos: geom.Vec3{X: 6, Y: 1.5, Z: d(2.5)}},
		{Model: device.GalaxyS9(), Pos: geom.Vec3{X: 13, Y: -5, Z: d(1.5)}},
		{Model: device.GalaxyS9(), Pos: geom.Vec3{X: 10, Y: 8, Z: d(3.5)}},
		{Model: device.GalaxyS9(), Pos: geom.Vec3{X: 20, Y: 2, Z: d(2.5)}},
	}
	specs[0].Orient, _ = sim.LeaderOrientation(specs[0].Pos, specs[1].Pos, 0)
	return sim.Config{Env: env, Devices: specs}
}

// poolTrio is the three-diver pool group the uwposd load test creates
// (internal/experiments/service.go).
var poolTrio = []geom.Vec3{{X: 0, Y: 0, Z: 1.5}, {X: 5, Y: 1, Z: 2.0}, {X: 8, Y: -3, Z: 1.0}}

// poolTrioConfig deploys the pool trio in sim.
func poolTrioConfig() sim.Config {
	specs := make([]sim.DeviceSpec, len(poolTrio))
	for i, p := range poolTrio {
		specs[i] = sim.DeviceSpec{Model: device.GalaxyS9(), Pos: p}
	}
	specs[0].Orient, _ = sim.LeaderOrientation(specs[0].Pos, specs[1].Pos, 0)
	return sim.Config{Env: channel.Pool(), Devices: specs}
}

type dockInstance struct {
	seed     int64
	scenario func() sim.Config
	checked  int // rounds in the checked pass

	errs      []float64 // checked pass: 2D errors of devices 1..N-1
	positions []geom.Vec3

	// traced phase only
	meter      *ingest.Meter
	busy       []float64 // ingest seconds per round
	buffers    []float64 // ingest buffers per round
	transforms uint64
	links      []float64 // measured links ÷ pairs per round
}

func (d *dockInstance) run(p phase) *recorder {
	rec := &recorder{}
	d.meter = nil
	if p.tr != nil {
		d.meter = ingest.NewMeter(0)
	}
	ctx := context.Background()
	for t := 0; ; t++ {
		if t >= d.checked && !time.Now().Before(p.deadline) {
			break
		}
		cfg := d.scenario()
		cfg.Rng = engine.Rand(d.seed, t)
		cfg.IngestMeter = d.meter
		_, bearing := sim.LeaderOrientation(cfg.Devices[0].Pos, cfg.Devices[1].Pos, 0)
		var before ingest.DeadlineReport
		var tf0 uint64
		if p.tr != nil {
			before, tf0 = d.meter.Report(), dsp.BankForwardTransforms()
		}

		rec.attempted++
		start := time.Now()
		opSpan := p.tr.begin("op", -1, t)
		s := p.tr.begin("sim.NewNetwork", opSpan, t)
		nw, err := sim.NewNetwork(cfg)
		p.tr.end(s)
		var res *sim.RoundResult
		if err == nil {
			s = p.tr.begin("sim.RunRound", opSpan, t)
			res, err = nw.RunRound(ctx)
			p.tr.end(s)
		}
		var loc *sim.LocalizeResult
		if err == nil {
			s = p.tr.begin("sim.LocalizeRound", opSpan, t)
			loc, err = nw.LocalizeRound(ctx, res, bearing, core.Config{})
			p.tr.end(s)
		}
		p.tr.end(opSpan)
		elapsed := time.Now().Sub(start)
		if err != nil {
			rec.fail("round %d: %v", t, err)
			continue
		}
		rec.ops = append(rec.ops, elapsed)

		for i, q := range loc.Core.Positions {
			if !finite(q.X, q.Y, q.Z, loc.Err2D[i]) {
				rec.fail("round %d: device %d position not finite: %v", t, i, q)
			}
		}
		if p.first && t < d.checked {
			d.errs = append(d.errs, loc.Err2D[1:]...)
			d.positions = append(d.positions, loc.Core.Positions...)
		}
		if p.tr != nil {
			after := d.meter.Report()
			d.busy = append(d.busy, after.ProcSeconds-before.ProcSeconds)
			d.buffers = append(d.buffers, float64(after.Buffers-before.Buffers))
			d.transforms += dsp.BankForwardTransforms() - tf0
			d.links = append(d.links, linkFrac(res.W))
		}
	}
	return rec
}

// linkFrac is the share of device pairs with a measured distance.
func linkFrac(w [][]float64) float64 {
	n := len(w)
	var got int
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if w[i][j] > 0 || w[j][i] > 0 {
				got++
			}
		}
	}
	return float64(got) / float64(n*(n-1)/2)
}

func (d *dockInstance) verify() verdict {
	var v verdict
	if want := (len(d.scenario().Devices) - 1) * d.checked; len(d.errs) != want {
		v.violations = append(v.violations, fmt.Sprintf("checked pass has %d device errors, want %d", len(d.errs), want))
	}
	h := newDigest()
	for _, q := range d.positions {
		h.floats(q.X, q.Y, q.Z)
	}
	h.floats(d.errs...)
	v.digest = h.sum()
	v.quality = []metric{errQuality("loc_err", d.errs)}
	return v
}

func (d *dockInstance) layers(tr *tracer, rec *recorder) []metric {
	round := summary("sim.round_ms", tr.durations("sim.RunRound"))
	var acoustic []float64
	rounds := tr.durations("sim.RunRound")
	for i, r := range rounds {
		if i < len(d.busy) {
			acoustic = append(acoustic, r.Seconds()-d.busy[i])
		}
	}
	rep := d.meter.Report()
	buffers := sum(d.buffers)
	return []metric{
		summary("sim.network_ms", tr.durations("sim.NewNetwork")),
		round,
		meanMetric("sim.acoustic_ms", scale(acoustic, 1e3), "ms", "round minus ingest busy"),
		summary("core.round_ms", tr.durations("sim.LocalizeRound")),
		meanMetric("ingest.busy_ms", scale(d.busy, 1e3), "ms", "per round, from an ingest.Meter"),
		meanMetric("ingest.buffers", d.buffers, "count", "per round"),
		{name: "ingest.rtf_p99", value: rep.P99RTF, unit: "ratio", note: fmt.Sprintf("over %d buffers", rep.Buffers)},
		{name: "ingest.busy_frac", value: sum(d.busy) / sumDur(rounds), unit: "frac",
			note: "ingest busy ÷ sim.RunRound; compare ingest+dsp CPU shares"},
		{name: "dsp.transforms_per_buffer", value: float64(d.transforms) / buffers, unit: "count"},
		meanMetric("sim.link_frac", d.links, "frac", "measured links ÷ pairs"),
	}
}

func (d *dockInstance) close() {}

func finite(vs ...float64) bool {
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}
