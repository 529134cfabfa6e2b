package experiments

import (
	"context"
	"math"
	"math/rand"

	"uwpos/internal/channel"
	"uwpos/internal/device"
	"uwpos/internal/geom"
	"uwpos/internal/ranging"
	"uwpos/internal/sig"
	"uwpos/internal/sim"
	"uwpos/internal/stats"
)

// rangeOnce builds the network and runs one exchange, folding setup errors
// into an undetected result.
func rangeOnce(cfg sim.Config, method sim.RangingMethod) sim.RangeTrialResult {
	nw, err := sim.NewNetwork(cfg)
	if err != nil {
		return sim.RangeTrialResult{}
	}
	res, err := nw.RangeOnce(context.Background(), method)
	if err != nil {
		return sim.RangeTrialResult{}
	}
	return res
}

// accSketchErrors streams detected exchange errors from the engine into a
// named fixed-memory quantile sketch on p (undetected exchanges bump the
// key's "#miss" counter): results feed the aggregate as trials complete,
// in trial order, so aggregation is bit-identical at any worker count —
// and, through the shard stage machinery, at any shard count. At default
// sample counts the sketch is exact, so tables match the old
// collect-then-Percentile path byte for byte.
type trialErr struct {
	err float64
	ok  bool
}

func accSketchErrors(opt Options, p *Partial, key string, salt int64, n int, fn func(trial int, rng *rand.Rand) trialErr) {
	sk := p.Sketch(key)
	stage(opt, p, key, salt, n, fn, func(_ int, t trialErr) {
		if t.ok {
			sk.Add(t.err)
			opt.observe(t.err)
		} else {
			p.AddCounter(key+"#miss", 1)
		}
	})
}

// missedOf reads back the miss counter of one accSketchErrors stage.
func missedOf(p *Partial, key string) int { return int(p.Counter(key + "#miss")) }

// accRangeTrials fans n two-way exchanges of the given method across the
// trial engine, each in a fresh two-device scenario driven by its own
// per-trial RNG, streaming absolute errors into p's sketch at key
// (undetected exchanges are skipped and counted).
func accRangeTrials(opt Options, p *Partial, key string, salt int64, env *channel.Environment, method sim.RangingMethod, sepM, depthA, depthB float64, n int) {
	accRangeTrialsOccluded(opt, p, key, salt, env, method, sepM, depthA, depthB, n, 0)
}

// accRangeTrialsOccluded additionally attenuates the direct ray
// (directAtt > 0 models a blocked line of sight, §3.2's occlusion study).
func accRangeTrialsOccluded(opt Options, p *Partial, key string, salt int64, env *channel.Environment, method sim.RangingMethod, sepM, depthA, depthB float64, n int, directAtt float64) {
	accSketchErrors(opt, p, key, salt, n, func(_ int, rng *rand.Rand) trialErr {
		// Per-trial rig sway: the paper's pole/rope mounts drift by
		// decimetres between submersions.
		sep := sepM + 0.15*rng.NormFloat64()
		dA := clamp(depthA+0.15*rng.NormFloat64(), 0.4, env.BottomDepthM-0.3)
		dB := clamp(depthB+0.15*rng.NormFloat64(), 0.4, env.BottomDepthM-0.3)
		cfg := sim.TwoDeviceConfig(env, sep, dA, dB, 0)
		cfg.Rng = rng
		if directAtt > 0 {
			cfg.Faults = []sim.LinkFault{{A: 0, B: 1, DirectAtt: directAtt}}
		}
		res := rangeOnce(cfg, method)
		if !res.Detected {
			return trialErr{}
		}
		return trialErr{err: res.AbsError(), ok: true}
	})
}

var fig11aSeps = []float64{10, 20, 35, 45}

func accFig11a(opt Options, p *Partial, pre string) {
	trials := opt.samples(30)
	for i, sep := range fig11aSeps {
		accRangeTrials(opt, p, pre+"fig11a/"+ik(i), saltFig11a+int64(i), channel.Dock(), sim.MethodDualMic, sep, 2.5, 2.5, trials)
	}
}

func renderFig11a(_ Options, p *Partial, pre string) *stats.Table {
	table := &stats.Table{
		ID:     "fig11a",
		Title:  "1D ranging error CDF vs separation (dock)",
		Paper:  "medians 0.48/0.80/0.86 m at 10/20/35 m; error grows with range",
		Header: []string{"sep (m)", "median (m)", "95th (m)", "missed"},
	}
	for i, sep := range fig11aSeps {
		key := pre + "fig11a/" + ik(i)
		qs := p.Sketch(key).Quantiles(50, 95)
		table.Rows = append(table.Rows, []string{
			stats.F(sep), stats.F(qs[0]), stats.F(qs[1]),
			stats.F(float64(missedOf(p, key))),
		})
	}
	return table
}

var fig11bMethods = []sim.RangingMethod{sim.MethodDualMic, sim.MethodBottomMicOnly, sim.MethodTopMicOnly}

func accFig11b(opt Options, p *Partial, pre string) {
	trials := opt.samples(24)
	for i := range fig11aSeps {
		for mi, m := range fig11bMethods {
			accRangeTrials(opt, p, pre+"fig11b/"+ik(i)+"/"+ik(mi), saltFig11b+int64(i)*10+int64(m), channel.Dock(), m, fig11aSeps[i], 2.5, 2.5, trials)
		}
	}
}

func renderFig11b(_ Options, p *Partial, pre string) *stats.Table {
	table := &stats.Table{
		ID:     "fig11b",
		Title:  "95th-percentile ranging error: both vs single microphones",
		Paper:  "dual-mic lowest at every distance (up to 4.5 m better at 45 m); single mics erratic",
		Header: []string{"sep (m)", "both (m)", "bottom only (m)", "top only (m)"},
	}
	for i, sep := range fig11aSeps {
		row := []string{stats.F(sep)}
		for mi := range fig11bMethods {
			row = append(row, stats.F(p.Sketch(pre+"fig11b/"+ik(i)+"/"+ik(mi)).Quantile(95)))
		}
		table.Rows = append(table.Rows, row)
	}
	return table
}

var fig12aThresholds = []float64{3, 6, 9, 12, 15, 18, 21, 24}

// accFig12a scores our two-stage detector against the FMCW window-power
// detector at each threshold, under boathouse impulsive noise at a ~20 m
// SNR operating point.
func accFig12a(opt Options, p *Partial, pre string) {
	trials := opt.samples(60)
	pr := sig.DefaultParams()
	env := channel.Boathouse()
	const fs = 44100.0
	const dist = 20.0
	thresholds := fig12aThresholds

	pre12 := pr.Preamble()
	chirp := sig.LinearChirp(pr.BandLowHz, pr.BandHighHz, pr.PreambleLen(), fs)
	tx := geom.Vec3{X: 0, Y: 0, Z: 1}
	rx := geom.Vec3{X: dist, Y: 0, Z: 1}

	makeStream := func(rng *rand.Rand, wave []float64, present bool) []float64 {
		stream := make([]float64, 60000)
		env.AddNoise(stream, fs, rng)
		if present {
			taps := env.WithScatter(env.ImpulseResponse(tx, rx, channel.ImpulseOptions{}), rng)
			channel.RenderFast(stream, wave, taps, 15000, fs)
		}
		return stream
	}

	// Detectors are stateless after construction and shared across the
	// worker pool. Each trial draws its own streams; all FMCW thresholds
	// score the same pair of streams (a paired comparison, which is what
	// the threshold sweep wants anyway). Counter accumulation is
	// commutative, so ordered delivery changes no total — it just gives
	// the stage a contiguous checkpointable prefix.
	det := ranging.NewDetector(pr, ranging.DetectorConfig{})
	type trialCounts struct {
		oursFP, oursFN bool
		fp, fn         []bool
	}
	key := pre + "fig12a"
	stage(opt, p, key, saltFig12a, trials, func(_ int, rng *rand.Rand) trialCounts {
		tc := trialCounts{fp: make([]bool, len(thresholds)), fn: make([]bool, len(thresholds))}
		tc.oursFP = len(det.Detect(makeStream(rng, pre12, false))) > 0
		tc.oursFN = len(det.Detect(makeStream(rng, pre12, true))) == 0
		absent := makeStream(rng, chirp, false)
		present := makeStream(rng, chirp, true)
		winLen := int(0.01 * fs)
		for i, th := range thresholds {
			wd := ranging.WindowPowerDetector{WindowLen: winLen, ThresholdDB: th}
			tc.fp[i] = len(wd.Detect(absent)) > 0
			tc.fn[i] = len(wd.Detect(present)) == 0
		}
		return tc
	}, func(_ int, tc trialCounts) {
		if tc.oursFP {
			p.AddCounter(key+"/oursFP", 1)
		}
		if tc.oursFN {
			p.AddCounter(key+"/oursFN", 1)
		}
		for i := range thresholds {
			if tc.fp[i] {
				p.AddCounter(key+"/fp/"+ik(i), 1)
			}
			if tc.fn[i] {
				p.AddCounter(key+"/fn/"+ik(i), 1)
			}
		}
	})
}

func renderFig12a(opt Options, p *Partial, pre string) *stats.Table {
	key := pre + "fig12a"
	cell := func(counter string) string {
		return stats.F3(float64(p.Counter(key+counter)) / float64(opt.samples(60)))
	}
	table := &stats.Table{
		ID:     "fig12a",
		Title:  "signal-detection FP/FN: ours vs FMCW window-power detector",
		Paper:  "ours ≈10⁻²–10⁻³ both ways; FMCW trades FP against FN across TH_SD with no good point",
		Header: []string{"detector", "TH_SD (dB)", "FP ratio", "FN ratio"},
	}
	table.Rows = append(table.Rows, []string{"ours (PN autocorr 0.35)", "-", cell("/oursFP"), cell("/oursFN")})
	for i, th := range fig12aThresholds {
		table.Rows = append(table.Rows, []string{"fmcw window-power", stats.F(th), cell("/fp/" + ik(i)), cell("/fn/" + ik(i))})
	}
	return table
}

var (
	fig12bDists   = []float64{10, 20, 28}
	fig12bMethods = []sim.RangingMethod{sim.MethodDualMic, sim.MethodBeepBeep, sim.MethodCAT}
)

func accFig12b(opt Options, p *Partial, pre string) {
	trials := opt.samples(16)
	for di, dist := range fig12bDists {
		for mi, m := range fig12bMethods {
			accRangeTrials(opt, p, pre+"fig12b/"+ik(di)+"/"+ik(mi), saltFig12b+int64(di)*10+int64(m), channel.Boathouse(), m, dist, 1.0, 1.0, trials)
		}
	}
	// Partially occluded direct path at 20 m: the regime where plain
	// correlation locks onto the strongest echo while the channel-domain
	// earliest-consistent-peak search keeps finding the true arrival —
	// the mechanism behind the paper's gap.
	for mi, m := range fig12bMethods {
		accRangeTrialsOccluded(opt, p, pre+"fig12b/occl/"+ik(mi), saltFig12b+500+int64(m), channel.Boathouse(), m, 20, 1.0, 1.0, trials, 0.25)
	}
}

// fig12bCell formats one method's mean±std cell (with miss count).
func fig12bCell(p *Partial, key string) string {
	sk := p.Sketch(key)
	cell := stats.F(sk.Mean()) + "±" + stats.F(sk.Std())
	if missed := missedOf(p, key); missed > 0 {
		cell += " (miss " + stats.F(float64(missed)) + ")"
	}
	return cell
}

func renderFig12b(_ Options, p *Partial, pre string) *stats.Table {
	table := &stats.Table{
		ID:     "fig12b",
		Title:  "1D ranging error vs distance: ours vs BeepBeep vs CAT (boathouse)",
		Paper:  "ours lowest at all distances; baselines grow faster with range",
		Header: []string{"dist (m)", "ours mean±std", "beepbeep mean±std", "cat mean±std"},
	}
	for di, dist := range fig12bDists {
		row := []string{stats.F(dist)}
		for mi := range fig12bMethods {
			row = append(row, fig12bCell(p, pre+"fig12b/"+ik(di)+"/"+ik(mi)))
		}
		table.Rows = append(table.Rows, row)
	}
	row := []string{"20 (occl)"}
	for mi := range fig12bMethods {
		row = append(row, fig12bCell(p, pre+"fig12b/occl/"+ik(mi)))
	}
	table.Rows = append(table.Rows, row)
	return table
}

var fig13aDepths = []float64{2, 5, 8}

// accFig13a ranges at 2, 5 and 8 m depth in the 9 m dock: near the
// surface or the bottom, boundary proximity strengthens overlapping
// multipath.
func accFig13a(opt Options, p *Partial, pre string) {
	trials := opt.samples(24)
	for i, d := range fig13aDepths {
		accRangeTrials(opt, p, pre+"fig13a/"+ik(i), saltFig13a+int64(i), channel.Dock(), sim.MethodDualMic, 18, d, d, trials)
	}
}

func renderFig13a(_ Options, p *Partial, pre string) *stats.Table {
	table := &stats.Table{
		ID:     "fig13a",
		Title:  "ranging error vs device depth (dock, 18 m separation)",
		Paper:  "mid-column depth (5 m) best: median 0.28 m; worse near surface (2 m) and bottom (8 m)",
		Header: []string{"depth (m)", "median (m)", "95th (m)"},
	}
	for i, d := range fig13aDepths {
		qs := p.Sketch(pre+"fig13a/"+ik(i)).Quantiles(50, 95)
		table.Rows = append(table.Rows, []string{stats.F(d), stats.F(qs[0]), stats.F(qs[1])})
	}
	return table
}

var fig14aCases = []struct {
	name    string
	azimuth float64 // deg
	polar   float64 // deg
}{
	{"φ=0°,θ=180° (facing)", 0, 0},
	{"φ=90°,θ=180°", 90, 0},
	{"φ=180°,θ=180°", 180, 0},
	{"φ=0°,θ=0° (up)", 0, 90},
}

func accFig14a(opt Options, p *Partial, pre string) {
	trials := opt.samples(20)
	for ci, c := range fig14aCases {
		c := c
		accSketchErrors(opt, p, pre+"fig14a/"+ik(ci), saltFig14a+int64(ci), trials, func(_ int, rng *rand.Rand) trialErr {
			cfg := sim.TwoDeviceConfig(channel.Dock(), 20, 1.2, 2.5, 0)
			cfg.Rng = rng
			cfg.Devices[1].Orient = device.Orientation{
				AzimuthRad: geom.Deg2Rad(c.azimuth) + math.Pi, // 0 = facing the peer
				PolarRad:   geom.Deg2Rad(c.polar),
			}
			if c.polar > 45 {
				// Facing up also means held near the surface.
				cfg.Devices[1].Pos.Z = 0.7
			}
			r := rangeOnce(cfg, sim.MethodDualMic)
			return trialErr{err: r.AbsError(), ok: r.Detected}
		})
	}
}

func renderFig14a(_ Options, p *Partial, pre string) *stats.Table {
	table := &stats.Table{
		ID:     "fig14a",
		Title:  "ranging error vs transmitter orientation (20 m, dock)",
		Paper:  "medians 0.54–1.25 m; facing best, upward worst (surface multipath)",
		Header: []string{"orientation", "median (m)", "95th (m)"},
	}
	for ci, c := range fig14aCases {
		qs := p.Sketch(pre+"fig14a/"+ik(ci)).Quantiles(50, 95)
		table.Rows = append(table.Rows, []string{c.name, stats.F(qs[0]), stats.F(qs[1])})
	}
	return table
}

var fig14bPairs = [][2]string{{"pixel", "samsung"}, {"pixel", "oneplus"}, {"samsung", "oneplus"}}

func accFig14b(opt Options, p *Partial, pre string) {
	trials := opt.samples(20)
	models := map[string]func() *device.Model{
		"samsung": device.GalaxyS9, "pixel": device.Pixel, "oneplus": device.OnePlus,
	}
	for pi, pair := range fig14bPairs {
		pair := pair
		accSketchErrors(opt, p, pre+"fig14b/"+ik(pi), saltFig14b+int64(pi), trials, func(_ int, rng *rand.Rand) trialErr {
			cfg := sim.TwoDeviceConfig(channel.Dock(), 20, 2.5, 2.5, 0)
			cfg.Rng = rng
			cfg.Devices[0].Model = models[pair[0]]()
			cfg.Devices[1].Model = models[pair[1]]()
			r := rangeOnce(cfg, sim.MethodDualMic)
			return trialErr{err: r.AbsError(), ok: r.Detected}
		})
	}
}

func renderFig14b(_ Options, p *Partial, pre string) *stats.Table {
	table := &stats.Table{
		ID:     "fig14b",
		Title:  "ranging error across smartphone model pairs (20 m, dock)",
		Paper:  "all pairs comparable (medians well under 1 m); model mix is not a blocker",
		Header: []string{"pair", "median (m)", "95th (m)"},
	}
	for pi, pair := range fig14bPairs {
		name := pair[0] + "+" + pair[1]
		qs := p.Sketch(pre+"fig14b/"+ik(pi)).Quantiles(50, 95)
		table.Rows = append(table.Rows, []string{name, stats.F(qs[0]), stats.F(qs[1])})
	}
	return table
}

var fig15Speeds = []float64{0.32, 0.56}

func accFig15(opt Options, p *Partial, pre string) {
	pings := opt.samples(24)
	for si, speed := range fig15Speeds {
		speed := speed
		base := pre + "fig15/" + ik(si)
		errSk := p.Sketch(base + "/err")
		stage(opt, p, base, saltFig15+int64(si), pings, func(k int, rng *rand.Rand) trialErr {
			tSec := float64(k) // one ping per second
			// Back-and-forth between 6 and 18 m with the given speed.
			span := 12.0
			phase := math.Mod(tSec*speed, 2*span)
			pos := 6 + phase
			if phase > span {
				pos = 6 + 2*span - phase
			}
			cfg := sim.TwoDeviceConfig(channel.Dock(), pos, 2.0, 2.0, 0)
			cfg.Rng = rng
			// The device keeps moving during the exchange itself.
			dir := 1.0
			if phase > span {
				dir = -1
			}
			start := cfg.Devices[1].Pos
			cfg.Devices[1].Traj = sim.Linear(start, geom.Vec3{X: dir * speed})
			r := rangeOnce(cfg, sim.MethodDualMic)
			return trialErr{err: r.AbsError(), ok: r.Detected}
		}, func(_ int, te trialErr) {
			if te.ok {
				errSk.Add(te.err)
				opt.observe(te.err)
			}
		})
	}
}

func renderFig15(_ Options, p *Partial, pre string) *stats.Table {
	table := &stats.Table{
		ID:     "fig15",
		Title:  "1D ranging of a continuously moving device (1 Hz pings, dock)",
		Paper:  "estimates track the 5–18 m trajectory; median 0.51 m, 95th 1.17 m",
		Header: []string{"speed (cm/s)", "median err (m)", "95th err (m)", "pings"},
	}
	for si, speed := range fig15Speeds {
		sk := p.Sketch(pre + "fig15/" + ik(si) + "/err")
		qs := sk.Quantiles(50, 95)
		table.Rows = append(table.Rows, []string{
			stats.F(speed * 100), stats.F(qs[0]), stats.F(qs[1]),
			stats.F(float64(sk.Count())),
		})
	}
	return table
}

var fig22Dists = []float64{10, 20, 28}

// accFig22 runs the whole probe study (the appendix's 8-symbol probe
// preamble in the boathouse) as one serial stage (shard 0 only):
// the three distances share a single run RNG drawn in sequence, so the
// stage is indivisible. Per-distance subcarrier SNRs land in one sketch
// per distance; miss/skip outcomes land in counters so the render half
// can reproduce the original row logic.
func accFig22(opt Options, p *Partial, pre string) {
	serialStage(opt, p, pre+"fig22", func() {
		rng := opt.rng()
		pr := sig.SNRProbeParams()
		env := channel.Boathouse()
		const fs = 44100.0
		ce := ranging.NewChannelEstimator(pr)
		wave := pr.Preamble()
		for di, dist := range fig22Dists {
			stream := make([]float64, 40000)
			env.AddNoise(stream, fs, rng)
			taps := env.WithScatter(env.ImpulseResponse(
				geom.Vec3{X: 0, Y: 0, Z: 1}, geom.Vec3{X: dist, Y: 0, Z: 1},
				channel.ImpulseOptions{}), rng)
			channel.RenderFast(stream, wave, taps, 10000, fs)
			det := ranging.NewDetector(pr, ranging.DetectorConfig{})
			dets := det.Detect(stream)
			if len(dets) == 0 {
				p.AddCounter(pre+"fig22/"+ik(di)+"/miss", 1)
				continue
			}
			pts, err := ce.SubcarrierSNR(stream, dets[0].CoarseIndex)
			if err != nil {
				p.AddCounter(pre+"fig22/"+ik(di)+"/skip", 1)
				continue
			}
			snrSk := p.Sketch(pre + "fig22/" + ik(di) + "/snr")
			for _, pt := range pts {
				snrSk.Add(pt.SNRDB)
			}
		}
	})
}

func renderFig22(_ Options, p *Partial, pre string) *stats.Table {
	table := &stats.Table{
		ID:     "fig22",
		Title:  "per-subcarrier SNR vs distance (boathouse)",
		Paper:  "SNR ≈30–40 dB at 10 m falling to ≈10–20 dB at 28 m, roughly flat across 1–5 kHz",
		Header: []string{"dist (m)", "mean SNR (dB)", "min (dB)", "max (dB)"},
	}
	for di, dist := range fig22Dists {
		if p.Counter(pre+"fig22/"+ik(di)+"/miss") > 0 {
			table.Rows = append(table.Rows, []string{stats.F(dist), "miss", "-", "-"})
			continue
		}
		if p.Counter(pre+"fig22/"+ik(di)+"/skip") > 0 {
			continue
		}
		snrs := p.Sketch(pre + "fig22/" + ik(di) + "/snr").Values()
		if len(snrs) == 0 {
			continue // stage never ran (e.g. partial from a non-zero shard)
		}
		var vals []float64
		for _, v := range snrs {
			if !math.IsInf(v, 0) {
				vals = append(vals, v)
			}
		}
		minV, maxV := vals[0], vals[0]
		for _, v := range vals {
			minV = math.Min(minV, v)
			maxV = math.Max(maxV, v)
		}
		table.Rows = append(table.Rows, []string{stats.F(dist), stats.F(stats.Mean(vals)), stats.F(minV), stats.F(maxV)})
	}
	return table
}
