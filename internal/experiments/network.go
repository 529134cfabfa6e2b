package experiments

import (
	"context"
	"math"
	"math/rand"

	"uwpos/internal/channel"
	"uwpos/internal/core"
	"uwpos/internal/device"
	"uwpos/internal/engine"
	"uwpos/internal/geom"
	"uwpos/internal/graph"
	"uwpos/internal/protocol"
	"uwpos/internal/sim"
	"uwpos/internal/stats"
)

// testbed builds the Fig. 17-style five-device deployment for an
// environment, with link distances to the leader spanning 3–25 m.
func testbed(env *channel.Environment, seed int64) sim.Config {
	s9 := device.GalaxyS9
	depthCap := env.BottomDepthM - 0.5
	d := func(z float64) float64 { return math.Min(z, depthCap) }
	specs := []sim.DeviceSpec{
		{Model: s9(), Pos: geom.Vec3{X: 0, Y: 0, Z: d(2.0)}},
		{Model: s9(), Pos: geom.Vec3{X: 6, Y: 1.5, Z: d(2.5)}},
		{Model: s9(), Pos: geom.Vec3{X: 13, Y: -5, Z: d(1.5)}},
		{Model: s9(), Pos: geom.Vec3{X: 10, Y: 8, Z: d(3.5)}},
		{Model: s9(), Pos: geom.Vec3{X: 20, Y: 2, Z: d(2.5)}},
	}
	o, _ := sim.LeaderOrientation(specs[0].Pos, specs[1].Pos, 0)
	specs[0].Orient = o
	return sim.Config{Env: env, Devices: specs, Seed: seed}
}

// roundData is one full-stack protocol round kept for post-processing.
type roundData struct {
	nw      *sim.Network
	round   *sim.RoundResult
	bearing float64
	cfg     sim.Config
	trial   int // global trial index within the collect, for derived randomness
}

// accStreamRounds fans full acoustic rounds across the trial engine and
// hands each surviving round to sink as soon as it completes, in trial
// order, so per-round post-processing runs while later rounds are still
// simulating and no round is retained past its sink call — the memory
// profile is one round per worker instead of one per trial. The stage
// machinery scopes the run to this shard's span of [0, rounds) and skips
// the checkpointed prefix on resume; rd.trial carries the global trial
// index either way, so derived randomness (engine.Rand(seed', rd.trial))
// is shard- and worker-invariant. mk builds trial t's scenario, drawing
// any per-round variation from rng; the round itself then consumes the
// same rng inside the network, per the engine's seeding contract. Failed
// rounds are dropped.
func accStreamRounds(opt Options, p *Partial, key string, salt int64, mk func(trial int, rng *rand.Rand) sim.Config, rounds int, sink func(rd roundData)) {
	type slot struct {
		rd roundData
		ok bool
	}
	stage(opt, p, key, salt, rounds, func(t int, rng *rand.Rand) slot {
		cfg := mk(t, rng)
		if cfg.Rng == nil {
			cfg.Rng = rng
		}
		nw, err := sim.NewNetwork(cfg)
		if err != nil {
			return slot{}
		}
		round, err := nw.RunRound(context.Background())
		if err != nil {
			return slot{}
		}
		_, bearing := sim.LeaderOrientation(cfg.Devices[0].Pos, cfg.Devices[1].Pos, 0)
		return slot{rd: roundData{nw: nw, round: round, bearing: bearing, cfg: cfg, trial: t}, ok: true}
	}, func(_ int, s slot) {
		if s.ok {
			sink(s.rd)
		}
	})
}

// staticTestbed adapts a fixed scenario to accStreamRounds' factory shape.
func staticTestbed(env *channel.Environment) func(int, *rand.Rand) sim.Config {
	return func(int, *rand.Rand) sim.Config { return testbed(env, 0) }
}

// localizeErrors scores one round, returning per-device 2D errors
// (excluding the leader) alongside their true link distances to the
// leader.
func localizeErrors(rd roundData, cfg core.Config) (errs, linkDist []float64, ok bool) {
	loc, err := rd.nw.LocalizeRound(context.Background(), rd.round, rd.bearing, cfg)
	if err != nil {
		return nil, nil, false
	}
	for i := 1; i < len(loc.Err2D); i++ {
		errs = append(errs, loc.Err2D[i])
		linkDist = append(linkDist, rd.round.TrueD[0][i])
	}
	return errs, linkDist, true
}

var (
	fig18Sites   = []string{"dock", "boathouse"}
	fig18Buckets = []string{"all", "0-10m", "10-15m", "15-25m"}
)

func accFig18(opt Options, p *Partial, pre string) {
	rounds := opt.samples(12)
	for si, site := range fig18Sites {
		env, _ := channel.ByName(site)
		buckets := make(map[string]*stats.Sketch, len(fig18Buckets))
		for _, b := range fig18Buckets {
			buckets[b] = p.Sketch(pre + "fig18/" + site + "/" + b)
		}
		// Rounds are scored as they complete; nothing but the bucket
		// sketches survives a round's sink call.
		accStreamRounds(opt, p, pre+"fig18/"+ik(si), saltFig18+int64(si), staticTestbed(env), rounds, func(rd roundData) {
			errs, dist, ok := localizeErrors(rd, core.DefaultConfig())
			if !ok {
				return
			}
			for k, e := range errs {
				buckets["all"].Add(e)
				opt.observe(e)
				switch {
				case dist[k] <= 10:
					buckets["0-10m"].Add(e)
				case dist[k] <= 15:
					buckets["10-15m"].Add(e)
				default:
					buckets["15-25m"].Add(e)
				}
			}
		})
	}
}

func renderFig18(_ Options, p *Partial, pre string) *stats.Table {
	table := &stats.Table{
		ID:     "fig18",
		Title:  "2D localization error by link distance (5-device testbeds)",
		Paper:  "dock median 0.9 m (95th 3.2 m); boathouse median 1.6 m (95th 4.9 m); error grows with distance",
		Header: []string{"site", "bucket", "median (m)", "95th (m)", "n"},
	}
	for _, site := range fig18Sites {
		for _, b := range fig18Buckets {
			sk := p.Sketch(pre + "fig18/" + site + "/" + b)
			qs := sk.Quantiles(50, 95)
			table.Rows = append(table.Rows, []string{
				site, b, stats.F(qs[0]), stats.F(qs[1]),
				stats.F(float64(sk.Count())),
			})
		}
	}
	return table
}

// accFig19a blocks the leader↔user-1 link with a solid sheet (severe
// multipath, so a distance outlier) and localizes each round with and
// without Algorithm 1's outlier search.
func accFig19a(opt Options, p *Partial, pre string) {
	rounds := opt.samples(12)
	env := channel.Dock()
	mk := func(int, *rand.Rand) sim.Config {
		cfg := testbed(env, 0)
		// Same depth, fully occluded direct path (paper setup).
		cfg.Devices[0].Pos.Z = 1.5
		cfg.Devices[1].Pos.Z = 1.5
		cfg.Faults = []sim.LinkFault{{A: 0, B: 1, DirectAtt: 0.02}}
		return cfg
	}
	noOutlier := core.DefaultConfig()
	noOutlier.MaxOutliers = 0
	noOutlier.StressAccept = math.Inf(1) // never search
	with := p.Sketch(pre + "fig19a/with")
	without := p.Sketch(pre + "fig19a/without")
	accStreamRounds(opt, p, pre+"fig19a", saltFig19a, mk, rounds, func(rd roundData) {
		if errs, _, ok := localizeErrors(rd, core.DefaultConfig()); ok {
			for _, e := range errs {
				with.Add(e)
				opt.observe(e)
			}
		}
		if errs, _, ok := localizeErrors(rd, noOutlier); ok {
			for _, e := range errs {
				without.Add(e)
			}
		}
	})
}

func renderFig19a(_ Options, p *Partial, pre string) *stats.Table {
	table := &stats.Table{
		ID:     "fig19a",
		Title:  "occluded leader↔user-1 link: with vs without outlier detection",
		Paper:  "with detection median 1.4 m / 95th 3.4 m; without, the 90–100th percentile tail explodes",
		Header: []string{"variant", "median (m)", "95th (m)", "99th (m)"},
	}
	for _, k := range []string{"with", "without"} {
		qs := p.Sketch(pre+"fig19a/"+k).Quantiles(50, 95, 99)
		table.Rows = append(table.Rows, []string{
			k + " outlier detection", stats.F(qs[0]), stats.F(qs[1]), stats.F(qs[2]),
		})
	}
	return table
}

var fig19bVariants = []string{"full", "link-drop", "node-drop"}

// accFig19b post-processes clean dock rounds, as the paper does ("use the
// data collected from the dock location"): the full network, one random
// link removed and one random node removed.
func accFig19b(opt Options, p *Partial, pre string) {
	rounds := opt.samples(12)
	env := channel.Dock()
	sks := make(map[string]*stats.Sketch, len(fig19bVariants))
	for _, k := range fig19bVariants {
		sks[k] = p.Sketch(pre + "fig19b/" + k)
	}
	accStreamRounds(opt, p, pre+"fig19b", saltFig19b, staticTestbed(env), rounds, func(rd roundData) {
		// Post-processing randomness (which link/node to drop) runs on a
		// stream derived from the round's global trial index so it is
		// stable under any worker count — and any shard count.
		rng := engine.Rand(opt.seed()^0x19b, rd.trial)
		if errs, _, ok := localizeErrors(rd, core.DefaultConfig()); ok {
			for _, e := range errs {
				sks["full"].Add(e)
				opt.observe(e)
			}
		}
		// Random link removed (never the leader↔user-1 link, which the
		// pipeline requires), provided the remainder stays realizable.
		n := len(rd.round.D)
		w2 := cloneMatrix(rd.round.W)
		for attempt := 0; attempt < 50; attempt++ {
			a, b := rng.Intn(n), rng.Intn(n)
			if a == b || (a == 0 && b == 1) || (a == 1 && b == 0) || w2[a][b] == 0 {
				continue
			}
			w2[a][b], w2[b][a] = 0, 0
			if graph.FromWeights(w2).UniquelyRealizable() {
				break
			}
			w2[a][b], w2[b][a] = 1, 1
		}
		if errs, ok := relocalize(rd, rd.round.D, w2); ok {
			for _, e := range errs {
				sks["link-drop"].Add(e)
			}
		}
		// Random node removed (not leader, not user 1).
		drop := 2 + rng.Intn(n-2)
		if errs, ok := relocalizeWithoutNode(rd, drop); ok {
			for _, e := range errs {
				sks["node-drop"].Add(e)
			}
		}
	})
}

func renderFig19b(_ Options, p *Partial, pre string) *stats.Table {
	table := &stats.Table{
		ID:     "fig19b",
		Title:  "full network vs random link drop vs random node drop (dock)",
		Paper:  "medians similar (1.0 vs 0.9 m); link drop inflates the 95th (6.2 vs 3.2 m); node drop does not hurt",
		Header: []string{"variant", "median (m)", "95th (m)"},
	}
	for _, k := range fig19bVariants {
		qs := p.Sketch(pre+"fig19b/"+k).Quantiles(50, 95)
		table.Rows = append(table.Rows, []string{k, stats.F(qs[0]), stats.F(qs[1])})
	}
	return table
}

func cloneMatrix(m [][]float64) [][]float64 {
	out := make([][]float64, len(m))
	for i := range m {
		out[i] = append([]float64(nil), m[i]...)
	}
	return out
}

// relocalize reruns the pipeline on modified distance/weight matrices.
func relocalize(rd roundData, d, w [][]float64) ([]float64, bool) {
	in := core.Input{
		D: d, W: w, Depths: rd.round.Depths, MicSigns: rd.round.MicSigns,
		PointingBearing: rd.bearing,
	}
	res, err := core.Localize(context.Background(), in, core.DefaultConfig())
	if err != nil {
		return nil, false
	}
	truth := rd.nw.TruePositions(0.70)
	var errs []float64
	for i := 1; i < len(res.Planar); i++ {
		want := truth[i].Sub(truth[0]).XY()
		errs = append(errs, res.Planar[i].Dist(want))
	}
	return errs, true
}

// relocalizeWithoutNode removes one node (≥2) and relocalizes the rest.
func relocalizeWithoutNode(rd roundData, drop int) ([]float64, bool) {
	n := len(rd.round.D)
	keep := make([]int, 0, n-1)
	for i := 0; i < n; i++ {
		if i != drop {
			keep = append(keep, i)
		}
	}
	m := len(keep)
	d := make([][]float64, m)
	w := make([][]float64, m)
	depths := make([]float64, m)
	signs := make([]int, m)
	for a, ia := range keep {
		d[a] = make([]float64, m)
		w[a] = make([]float64, m)
		depths[a] = rd.round.Depths[ia]
		signs[a] = rd.round.MicSigns[ia]
		for b, ib := range keep {
			d[a][b] = rd.round.D[ia][ib]
			w[a][b] = rd.round.W[ia][ib]
		}
	}
	res, err := core.Localize(context.Background(), core.Input{
		D: d, W: w, Depths: depths, MicSigns: signs, PointingBearing: rd.bearing,
	}, core.DefaultConfig())
	if err != nil {
		return nil, false
	}
	truth := rd.nw.TruePositions(0.70)
	var errs []float64
	for a := 1; a < m; a++ {
		ia := keep[a]
		want := truth[ia].Sub(truth[0]).XY()
		errs = append(errs, res.Planar[a].Dist(want))
	}
	return errs, true
}

var fourDevVariants = []string{"5-device", "4-device"}

// accFourDevices compares 5- and 4-device networks (§3.2) by removing,
// from each dock round, one node that is neither the leader nor user 1.
func accFourDevices(opt Options, p *Partial, pre string) {
	rounds := opt.samples(10)
	env := channel.Dock()
	sks := make(map[string]*stats.Sketch, len(fourDevVariants))
	for _, k := range fourDevVariants {
		sks[k] = p.Sketch(pre + "fig19b-4dev/" + k)
	}
	accStreamRounds(opt, p, pre+"fig19b-4dev", saltFourDevices, staticTestbed(env), rounds, func(rd roundData) {
		rng := engine.Rand(opt.seed()^0x4de, rd.trial)
		if errs, _, ok := localizeErrors(rd, core.DefaultConfig()); ok {
			for _, e := range errs {
				sks["5-device"].Add(e)
				opt.observe(e)
			}
		}
		drop := 2 + rng.Intn(len(rd.round.D)-2)
		if errs, ok := relocalizeWithoutNode(rd, drop); ok {
			for _, e := range errs {
				sks["4-device"].Add(e)
			}
		}
	})
}

func renderFourDevices(_ Options, p *Partial, pre string) *stats.Table {
	table := &stats.Table{
		ID:     "fig19b-4dev",
		Title:  "5-device vs 4-device networks (dock)",
		Paper:  "similar CDFs: medians 0.9 vs 0.8 m, both 95th ≈3.2 m",
		Header: []string{"network", "median (m)", "95th (m)"},
	}
	for _, k := range fourDevVariants {
		qs := p.Sketch(pre+"fig19b-4dev/"+k).Quantiles(50, 95)
		table.Rows = append(table.Rows, []string{k, stats.F(qs[0]), stats.F(qs[1])})
	}
	return table
}

func accFig20(opt Options, p *Partial, pre string) {
	rounds := opt.samples(8)
	env := channel.Dock()
	for _, mover := range []int{1, 2} {
		mover := mover
		mk := func(_ int, rng *rand.Rand) sim.Config {
			cfg := testbed(env, 0)
			speed := 0.15 + 0.35*rng.Float64() // 15–50 cm/s
			start := cfg.Devices[mover].Pos
			cfg.Devices[mover].Traj = sim.Oscillate(start, geom.Vec3{X: 1, Y: 0.4}, 1.5, speed)
			return cfg
		}
		sks := make(map[int]*stats.Sketch, 2)
		for _, user := range []int{1, 2} {
			sks[user] = p.Sketch(pre + "fig20/" + keyFor(mover, user))
		}
		accStreamRounds(opt, p, pre+"fig20/"+ik(mover), saltFig20+int64(mover), mk, rounds, func(rd roundData) {
			loc, err := rd.nw.LocalizeRound(context.Background(), rd.round, rd.bearing, core.DefaultConfig())
			if err != nil {
				return
			}
			for _, user := range []int{1, 2} {
				sks[user].Add(loc.Err2D[user])
				opt.observe(loc.Err2D[user])
			}
		})
	}
}

func renderFig20(_ Options, p *Partial, pre string) *stats.Table {
	table := &stats.Table{
		ID:     "fig20",
		Title:  "2D localization with one moving device (dock)",
		Paper:  "moving user 1: 0.2→0.3 m; moving user 2: 0.4→0.8 m — modest degradation",
		Header: []string{"moving", "user", "median (m)", "95th (m)"},
	}
	for _, mover := range []int{1, 2} {
		for _, user := range []int{1, 2} {
			qs := p.Sketch(pre+"fig20/"+keyFor(mover, user)).Quantiles(50, 95)
			table.Rows = append(table.Rows, []string{
				"user " + stats.F(float64(mover)), "user " + stats.F(float64(user)),
				stats.F(qs[0]), stats.F(qs[1]),
			})
		}
	}
	return table
}

func keyFor(mover, user int) string {
	return "mover" + string(rune('0'+mover)) + "/user" + string(rune('0'+user))
}

// rttExtra places the sixth and seventh divers of the rtt sweep, which
// runs to N = 7 as the paper measured, past the five-diver testbed: 8.6 m
// and 20.0 m from the leader, every link among the seven within 3–25 m.
var rttExtra = []geom.Vec3{{X: 3, Y: -8, Z: 3.0}, {X: 16, Y: 12, Z: 2.0}}

func accRTT(opt Options, p *Partial, pre string) {
	measuredRounds := opt.samples(3)
	env := channel.Dock()
	for n := 3; n <= 7; n++ {
		n := n
		key := pre + "rtt/" + ik(n)
		sk := p.Sketch(key)
		stage(opt, p, key, saltRTT+int64(n), measuredRounds, func(_ int, rng *rand.Rand) float64 {
			cfg := testbed(env, 0)
			cfg.Rng = rng
			for _, pos := range rttExtra {
				cfg.Devices = append(cfg.Devices, sim.DeviceSpec{Model: device.GalaxyS9(), Pos: pos})
			}
			cfg.Devices = cfg.Devices[:n]
			nw, err := sim.NewNetwork(cfg)
			if err != nil {
				return math.NaN()
			}
			round, err := nw.RunRound(context.Background())
			if err != nil {
				return math.NaN()
			}
			return round.Latency
		}, func(_ int, v float64) {
			if !math.IsNaN(v) {
				sk.Add(v)
				opt.observe(v)
			}
		})
	}
}

func renderRTT(_ Options, p *Partial, pre string) *stats.Table {
	table := &stats.Table{
		ID:     "rtt",
		Title:  "localization protocol round time vs group size",
		Paper:  "measured means 1.2/1.6/1.9/2.2/2.5 s for N=3..7",
		Header: []string{"N", "analytic (s)", "measured (s)"},
	}
	for n := 3; n <= 7; n++ {
		analytic := protocol.DefaultParams(n).RoundTime(true)
		measured := p.Sketch(pre + "rtt/" + ik(n)).Mean()
		table.Rows = append(table.Rows, []string{
			stats.F(float64(n)), stats.F(analytic), stats.F(measured),
		})
	}
	return table
}

func accFlipping(opt Options, p *Partial, pre string) {
	rounds := opt.samples(15)
	env := channel.Dock()
	key := pre + "flipping"
	accStreamRounds(opt, p, key, saltFlipping, staticTestbed(env), rounds, func(rd roundData) {
		truth := rd.nw.TruePositions(0.70)
		for i := 2; i < len(truth); i++ {
			sign := rd.round.MicSigns[i]
			if sign == 0 {
				continue
			}
			cross := truth[i].Sub(truth[0]).XY().Cross(truth[1].Sub(truth[0]).XY())
			want := 0
			switch {
			case cross > 0:
				want = 1
			case cross < 0:
				want = -1
			}
			p.AddCounter(key+"/singleTotal", 1)
			if sign == want {
				p.AddCounter(key+"/singleOK", 1)
			}
		}
		// Majority vote across all voters.
		vote := 0
		for i := 2; i < len(truth); i++ {
			sign := rd.round.MicSigns[i]
			if sign == 0 {
				continue
			}
			cross := truth[i].Sub(truth[0]).XY().Cross(truth[1].Sub(truth[0]).XY())
			switch {
			case cross > 0:
				vote += sign
			case cross < 0:
				vote -= sign
			}
		}
		p.AddCounter(key+"/tripleTotal", 1)
		if vote > 0 {
			p.AddCounter(key+"/tripleOK", 1)
		}
	})
}

func renderFlipping(_ Options, p *Partial, pre string) *stats.Table {
	key := pre + "flipping"
	singleOK, singleTotal := int(p.Counter(key+"/singleOK")), int(p.Counter(key+"/singleTotal"))
	tripleOK, tripleTotal := int(p.Counter(key+"/tripleOK")), int(p.Counter(key+"/tripleTotal"))
	return &stats.Table{
		ID:     "flipping",
		Title:  "flipping disambiguation accuracy (dock rounds)",
		Paper:  "90.1% using one device's signal; 100% using all three",
		Header: []string{"voters", "accuracy", "n"},
		Rows: [][]string{
			{"single", stats.F3(ratio(singleOK, singleTotal)), stats.F(float64(singleTotal))},
			{"all (majority)", stats.F3(ratio(tripleOK, tripleTotal)), stats.F(float64(tripleTotal))},
		},
	}
}

func ratio(a, b int) float64 {
	if b == 0 {
		return math.NaN()
	}
	return float64(a) / float64(b)
}

// accHeadline runs lighter fig11a and fig18 sweeps under the h11/ and
// h18/ prefixes. Shard and Checkpoint pass through so a sharded or
// resumed headline run scopes and snapshots its sub-experiments too.
func accHeadline(opt Options, p *Partial, pre string) {
	accFig11a(Options{Seed: opt.Seed, Samples: opt.samples(12), Workers: opt.Workers, Progress: opt.Progress, Shard: opt.Shard, Checkpoint: opt.Checkpoint}, p, pre+"h11/")
	accFig18(Options{Seed: opt.Seed + 1, Samples: opt.samples(6), Workers: opt.Workers, Progress: opt.Progress, Shard: opt.Shard, Checkpoint: opt.Checkpoint}, p, pre+"h18/")
}

func renderHeadline(_ Options, p *Partial, pre string) *stats.Table {
	median := func(key string) string { return stats.F(stats.Median(p.Sketch(pre+key).Values())) + " m" }
	table := &stats.Table{
		ID:     "headline",
		Title:  "headline results vs paper (§1 key findings)",
		Paper:  "1D medians 0.48/0.80/0.86 m @10/20/35 m; 2D medians 0.9/1.6 m dock/boathouse; latency 1.56/1.88 s for 4/5 devices",
		Header: []string{"metric", "paper", "measured"},
	}
	table.Rows = append(table.Rows,
		// fig11aSeps[0:3] are the 10, 20 and 35 m separations.
		[]string{"1D median @10 m", "0.48 m", median("h11/fig11a/0")},
		[]string{"1D median @20 m", "0.80 m", median("h11/fig11a/1")},
		[]string{"1D median @35 m", "0.86 m", median("h11/fig11a/2")},
		[]string{"2D median dock", "0.9 m", median("h18/fig18/dock/all")},
		[]string{"2D median boathouse", "1.6 m", median("h18/fig18/boathouse/all")},
		[]string{"protocol latency N=4", "1.56 s", stats.F(protocol.DefaultParams(4).RoundTime(true)) + " s"},
		[]string{"protocol latency N=5", "1.88 s", stats.F(protocol.DefaultParams(5).RoundTime(true)) + " s"},
	)
	return table
}
