package experiments

import (
	"math"
	"math/rand"

	"uwpos/internal/depth"
	"uwpos/internal/orient"
	"uwpos/internal/power"
	"uwpos/internal/stats"
)

var fig13bSensors = []string{"watch", "phone"}

// accFig13b lowers a smartwatch dive gauge and a pouched phone barometer
// 0–9 m in 1 m steps, with repeated reads at each step (the paper's 30 s
// holds).
func accFig13b(opt Options, p *Partial, pre string) {
	rng := opt.rng()
	reps := opt.samples(30)
	// One sensor instance per run, as in the paper's single-device study:
	// the bias draws come from the run rng — watch then phone, in that
	// order, so every shard constructs bit-identical sensors. Per-reading
	// noise then runs on engine trial streams (Sensor.Read only reads
	// sensor fields, so one instance is safe across workers).
	sensors := map[string]*depth.Sensor{
		"watch": depth.NewWatchGauge(rng),
		"phone": depth.NewPhoneBarometer(rng),
	}
	const refs = 10 // 0–9 m in 1 m steps
	for ni, name := range fig13bSensors {
		s := sensors[name]
		key := pre + "fig13b/" + ik(ni)
		sk := p.Sketch(key)
		stage(opt, p, key, saltFig13b+int64(ni), refs*reps, func(t int, rng *rand.Rand) float64 {
			ref := float64(t / reps)
			return math.Abs(s.Read(ref, rng) - ref)
		}, func(_ int, e float64) {
			sk.Add(e)
			opt.observe(e)
		})
	}
}

func renderFig13b(_ Options, p *Partial, pre string) *stats.Table {
	table := &stats.Table{
		ID:     "fig13b",
		Title:  "depth measurement accuracy: smartwatch gauge vs phone barometer",
		Paper:  "watch 0.15±0.11 m, phone 0.42±0.18 m across 0–9 m",
		Header: []string{"sensor", "mean abs err (m)", "std (m)"},
	}
	for ni, name := range fig13bSensors {
		sk := p.Sketch(pre + "fig13b/" + ik(ni))
		table.Rows = append(table.Rows, []string{name, stats.F(sk.Mean()), stats.F(sk.Std())})
	}
	return table
}

var fig16Dists = []float64{3, 5, 7, 9}

func accFig16(opt Options, p *Partial, pre string) {
	trials := opt.samples(200)
	cam := orient.DefaultCamera()
	users := []orient.HumanModel{orient.DefaultHuman(), {BaseErrDeg: 4.0, PerMeterDeg: 0.2, ArmTremorDeg: 1.4}}
	// One engine trial per simulated user; the study's internal loop draws
	// from that user's stream. The user's sketch holds perDist values then
	// the grand mean, in that order.
	key := pre + "fig16"
	stage(opt, p, key, saltFig16, len(users), func(ui int, rng *rand.Rand) []float64 {
		perDist, grand := orient.Study(cam, users[ui], fig16Dists, trials, rng)
		return append(append([]float64(nil), perDist...), grand)
	}, func(ui int, vals []float64) {
		sk := p.Sketch(key + "/u" + ik(ui))
		for _, v := range vals {
			sk.Add(v)
		}
	})
}

func renderFig16(_ Options, p *Partial, pre string) *stats.Table {
	table := &stats.Table{
		ID:     "fig16",
		Title:  "leader pointing error vs distance (camera/checkerboard chain)",
		Paper:  "average 5.0° across two users and 3–9 m distances",
		Header: []string{"user", "3 m", "5 m", "7 m", "9 m", "mean (deg)"},
	}
	for ui := 0; ui < 2; ui++ {
		vals := p.Sketch(pre + "fig16" + "/u" + ik(ui)).Values()
		row := []string{"user " + stats.F(float64(ui+1))}
		for _, v := range vals[:len(fig16Dists)] {
			row = append(row, stats.F(v))
		}
		row = append(row, stats.F(vals[len(fig16Dists)]))
		table.Rows = append(table.Rows, row)
	}
	return table
}

// runBattery reproduces the §3.1 power study. It is pure arithmetic over the
// power profiles — no trials, no randomness — so the registry runs it as
// render-only.
func runBattery(_ Options) *stats.Table {
	table := &stats.Table{
		ID:     "battery",
		Title:  "battery drain after 4.5 h of acoustic operation",
		Paper:  "watch (continuous siren) −90%; phone (preamble / 3 s) −63%",
		Header: []string{"device", "workload", "drain @4.5 h", "hours to empty"},
	}
	for _, p := range []power.Profile{power.WatchSiren(), power.PhonePreambles()} {
		h, err := p.HoursToDrain(1)
		cell := "n/a"
		if err == nil {
			cell = stats.F(h) + " h"
		}
		table.Rows = append(table.Rows, []string{
			p.Name, "continuous", stats.F(p.DrainAfter(4.5)*100) + "%", cell,
		})
	}
	return table
}
