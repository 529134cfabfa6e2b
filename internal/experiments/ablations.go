package experiments

import (
	"math"
	"math/rand"

	"uwpos/internal/channel"
	"uwpos/internal/core"
	"uwpos/internal/dsp"
	"uwpos/internal/geom"
	"uwpos/internal/mds"
	"uwpos/internal/ranging"
	"uwpos/internal/sig"
	"uwpos/internal/sim"
	"uwpos/internal/stats"
)

// The ablations quantify the system's design choices. They are not paper
// figures; they justify implementation decisions with data.

// accAblationBandWindow compares the channel-estimator band taper: Hann
// (the default: −31 dB sidelobes, a wider main lobe) against rectangular
// (−13 dB sidelobes that the λ=0.2 direct-path test can mistake for early
// arrivals).
func accAblationBandWindow(opt Options, p *Partial, pre string) {
	trials := opt.samples(40)
	pr := sig.DefaultParams()
	env := channel.Dock()
	const fs = 44100.0
	sks := map[string]*stats.Sketch{
		"hann":        p.Sketch(pre + "ablation-bandwindow/hann"),
		"rectangular": p.Sketch(pre + "ablation-bandwindow/rectangular"),
	}

	wave := pr.Preamble()
	det := ranging.NewDetector(pr, ranging.DetectorConfig{}) // stateless, shared
	type trialErrs struct {
		hann, rect float64
		okH, okR   bool
	}
	stage(opt, p, pre+"ablation-bandwindow", saltAblBandWindow, trials, func(_ int, rng *rand.Rand) trialErrs {
		// One shared channel realization per trial; both tapers score it.
		var te trialErrs
		sep := 15 + 10*rng.Float64()
		tx := geom.Vec3{X: 0, Y: 0, Z: 2.5}
		rx := geom.Vec3{X: sep, Y: 0, Z: 2.5}
		taps := env.WithScatter(env.ImpulseResponse(tx, rx, channel.ImpulseOptions{}), rng)
		stream := make([]float64, 40000)
		env.AddNoise(stream, fs, rng)
		const at = 9000
		channel.Render(stream, wave, taps, at, fs)
		dets := det.Detect(stream)
		if len(dets) != 1 {
			return te
		}
		c := env.SoundSpeed(2.5)
		wantArrival := float64(at) + sep/c*fs
		for _, win := range []struct {
			name string
			w    dsp.Window
		}{{"hann", dsp.Hann}, {"rectangular", dsp.Rectangular}} {
			ce := ranging.NewChannelEstimator(pr)
			ce.SetBandWindow(win.w)
			h, err := ce.Estimate(stream, dets[0].CoarseIndex)
			if err != nil {
				continue
			}
			res := ranging.SingleMicDirectPath(h)
			if !res.OK {
				continue
			}
			arr := float64(dets[0].CoarseIndex) - float64(ce.GuardTaps) + res.TauTaps
			e := math.Abs(arr-wantArrival) / fs * c
			if win.name == "hann" {
				te.hann, te.okH = e, true
			} else {
				te.rect, te.okR = e, true
			}
		}
		return te
	}, func(_ int, te trialErrs) {
		if te.okH {
			sks["hann"].Add(te.hann)
			opt.observe(te.hann)
		}
		if te.okR {
			sks["rectangular"].Add(te.rect)
		}
	})
}

func renderAblationBandWindow(_ Options, p *Partial, pre string) *stats.Table {
	table := &stats.Table{
		ID:     "ablation-bandwindow",
		Title:  "channel-estimate band taper: Hann vs rectangular",
		Paper:  "(design choice, DESIGN.md §3.2 — not a paper figure)",
		Header: []string{"window", "median err (m)", "95th (m)", "n"},
	}
	for _, k := range []string{"hann", "rectangular"} {
		sk := p.Sketch(pre + "ablation-bandwindow/" + k)
		qs := sk.Quantiles(50, 95)
		table.Rows = append(table.Rows, []string{
			k, stats.F(qs[0]), stats.F(qs[1]), stats.F(float64(sk.Count())),
		})
	}
	return table
}

func accAblationPrefilter(opt Options, p *Partial, pre string) {
	trials := opt.samples(60)
	pr := sig.DefaultParams()
	wave := pr.Preamble()
	detOn := ranging.NewDetector(pr, ranging.DetectorConfig{})
	detOff := ranging.NewDetector(pr, ranging.DetectorConfig{DisablePrefilter: true})
	// Paired trials: both variants score the same noisy stream. Hit
	// counting is commutative, so totals are worker-count invariant; the
	// ordered stage additionally gives resume a contiguous prefix.
	type hit struct{ on, off bool }
	key := pre + "ablation-prefilter"
	stage(opt, p, key, saltAblPrefilter, trials, func(_ int, rng *rand.Rand) hit {
		stream := make([]float64, 40000)
		for i := range stream {
			stream[i] = 0.14 * rng.NormFloat64() // ≈−6 dB wideband
		}
		for i, v := range wave {
			stream[12000+i] += 0.25 * v
		}
		return hit{
			on:  len(detOn.Detect(stream)) > 0,
			off: len(detOff.Detect(stream)) > 0,
		}
	}, func(_ int, h hit) {
		if h.on {
			p.AddCounter(key+"/on", 1)
		}
		if h.off {
			p.AddCounter(key+"/off", 1)
		}
	})
}

func renderAblationPrefilter(opt Options, p *Partial, pre string) *stats.Table {
	key := pre + "ablation-prefilter"
	rate := func(counter string) string {
		return stats.F(float64(p.Counter(key+counter)) / float64(opt.samples(60)))
	}
	return &stats.Table{
		ID:     "ablation-prefilter",
		Title:  "detection rate at −6 dB wideband SNR: prefilter on vs off",
		Paper:  "(design choice — the validation stage needs in-band SNR)",
		Header: []string{"variant", "detection rate"},
		Rows: [][]string{
			{"with prefilter", rate("/on")},
			{"without prefilter", rate("/off")},
		},
	}
}

// accAblationRestarts measures what SMACOF restarts are worth on
// outlier-bearing problems: escaping deceptive local minima.
func accAblationRestarts(opt Options, p *Partial, pre string) {
	trials := opt.samples(80)
	sks := map[string]*stats.Sketch{
		"restarts=0": p.Sketch(pre + "ablation-restarts/restarts=0"),
		"restarts=2": p.Sketch(pre + "ablation-restarts/restarts=2"),
	}
	type stresses struct {
		r0, r2 float64
		ok0    bool
		ok2    bool
	}
	stage(opt, p, pre+"ablation-restarts", saltAblRestarts, trials, func(_ int, rng *rand.Rand) stresses {
		// Random 6-node geometry with one corrupted link.
		var st stresses
		pts := make([]geom.Vec2, 6)
		for i := range pts {
			pts[i] = geom.Vec2{X: rng.Float64() * 30, Y: rng.Float64() * 30}
		}
		n := len(pts)
		d := make([][]float64, n)
		w := make([][]float64, n)
		for i := range d {
			d[i] = make([]float64, n)
			w[i] = make([]float64, n)
			for j := range d[i] {
				if i != j {
					d[i][j] = pts[i].Dist(pts[j])
					w[i][j] = 1
				}
			}
		}
		a, b := rng.Intn(n), rng.Intn(n)
		for a == b {
			b = rng.Intn(n)
		}
		d[a][b] += 6 + 6*rng.Float64()
		d[b][a] = d[a][b]
		// Solver restart randomness draws from the trial stream, so the
		// whole trial replays from its (seed, index) pair.
		solverSeed := rng.Int63()
		for _, variant := range []struct {
			name     string
			restarts int
		}{{"restarts=0", -1}, {"restarts=2", 2}} {
			res, err := mds.Solve(d, w, mds.Options{
				Restarts: variant.restarts,
				Rng:      rand.New(rand.NewSource(solverSeed)),
			})
			if err != nil {
				continue
			}
			if variant.restarts < 0 {
				st.r0, st.ok0 = res.NormStress, true
			} else {
				st.r2, st.ok2 = res.NormStress, true
			}
		}
		return st
	}, func(_ int, st stresses) {
		if st.ok0 {
			sks["restarts=0"].Add(st.r0)
		}
		if st.ok2 {
			sks["restarts=2"].Add(st.r2)
			opt.observe(st.r2)
		}
	})
}

func renderAblationRestarts(_ Options, p *Partial, pre string) *stats.Table {
	table := &stats.Table{
		ID:     "ablation-restarts",
		Title:  "SMACOF restarts on outlier-bearing problems (normalized stress found)",
		Paper:  "(design choice — higher stress found = better outlier detectability)",
		Header: []string{"variant", "median stress (m)", "5th pct (m)"},
	}
	for _, k := range []string{"restarts=0", "restarts=2"} {
		qs := p.Sketch(pre+"ablation-restarts/"+k).Quantiles(50, 5)
		table.Rows = append(table.Rows, []string{
			k, stats.F(qs[0]), stats.F(qs[1]),
		})
	}
	return table
}

var ablRBVariants = []struct {
	name     string
	lossless bool
}{{"full comm", false}, {"lossless", true}}

func accAblationReportBack(opt Options, p *Partial, pre string) {
	rounds := opt.samples(8)
	env := channel.Dock()
	for vi, variant := range ablRBVariants {
		variant := variant
		sk := p.Sketch(pre + "ablation-reportback/" + variant.name)
		mk := func(int, *rand.Rand) sim.Config {
			cfg := testbed(env, 0)
			cfg.DisableReportBack = variant.lossless
			return cfg
		}
		// Same salt for both variants: paired rounds isolate the comm cost.
		// The stage keys must still be distinct — they track each variant's
		// own delivered-trial cursor.
		accStreamRounds(opt, p, pre+"ablation-reportback/"+ik(vi), saltAblReportBack, mk, rounds, func(rd roundData) {
			if errs, _, ok := localizeErrors(rd, core.DefaultConfig()); ok {
				for _, e := range errs {
					sk.Add(e)
					opt.observe(e)
				}
			}
		})
	}
}

func renderAblationReportBack(_ Options, p *Partial, pre string) *stats.Table {
	table := &stats.Table{
		ID:     "ablation-reportback",
		Title:  "2D error: full report-back comm vs lossless timestamps",
		Paper:  "(design cost of §2.4: 2-sample quantization + FSK + coding)",
		Header: []string{"variant", "median (m)", "95th (m)", "n"},
	}
	for _, variant := range ablRBVariants {
		sk := p.Sketch(pre + "ablation-reportback/" + variant.name)
		qs := sk.Quantiles(50, 95)
		table.Rows = append(table.Rows, []string{
			variant.name, stats.F(qs[0]), stats.F(qs[1]), stats.F(float64(sk.Count())),
		})
	}
	return table
}
