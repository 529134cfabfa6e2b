// Package experiments regenerates every table and figure of the paper's
// evaluation (§2.1.5 and §3). One ordered registry (Experiments) lists
// every experiment with its accumulate half, which runs trials into a
// mergeable Partial, and its render half, which turns a Partial into a
// printable stats.Table. Every run — cmd/uwbench, a sharded sweep, a
// test or a bench — goes through Accumulate then RenderPartial, and reads
// results from the table or the Partial's sketches and counters.
//
// Absolute values depend on our simulated water bodies rather than Lake
// Union; each table's paper line states the paper's figure beside it.
// What must reproduce is the *shape*: orderings, trends, crossovers and
// factors.
package experiments

import (
	"context"
	"math"
	"math/rand"

	"uwpos/internal/core"
	"uwpos/internal/engine"
	"uwpos/internal/geom"
	"uwpos/internal/graph"
	"uwpos/internal/stats"
)

// Options tunes experiment effort.
type Options struct {
	Seed int64
	// Samples scales Monte-Carlo sample counts (0 = paper-like defaults;
	// Quick divides heavier experiments further).
	Samples int
	Quick   bool
	// Workers bounds concurrent trials in the engine-backed experiments
	// (0 = GOMAXPROCS). Results are identical for every worker count —
	// see internal/engine's seeding contract.
	Workers int
	// Progress, when non-nil, receives each completed trial's headline
	// scalar (typically an error in metres) as results stream out of the
	// engine — the hook behind uwbench's live -progress line. Calls are
	// serialized on the experiment's goroutine; the callback must not
	// block for long (it stalls result delivery, not the trials).
	Progress func(v float64)
	// ServiceAddr points the service load-test experiment at a live
	// uwposd daemon ("host:port" or full URL). Empty = in-process server.
	ServiceAddr string
	// Shard restricts every trial stage to one contiguous slice of its
	// global trial sequence (see ShardSpec). Trial indices stay global, so
	// shard runs draw exactly the trials the full run would have; merging
	// the resulting Partials in shard-index order reproduces the full run.
	// The zero value runs everything.
	Shard ShardSpec
	// Checkpoint, when non-nil, is called once per delivered trial, after
	// the trial's contributions are fully folded into the experiment's
	// Partial — the safe point for serializing partial state (uwbench's
	// periodic checkpoint writer hooks in here). Calls are serialized on
	// the experiment's goroutine.
	Checkpoint func()
}

// observe forwards one trial scalar to the Progress hook, if any.
func (o Options) observe(v float64) {
	if o.Progress != nil {
		o.Progress(v)
	}
}

func (o Options) samples(def int) int {
	n := def
	if o.Samples > 0 {
		n = o.Samples
	}
	if o.Quick && n > 8 {
		n = n / 4
	}
	return n
}

func (o Options) seed() int64 {
	if o.Seed == 0 {
		return 1
	}
	return o.Seed
}

func (o Options) rng() *rand.Rand {
	return rand.New(rand.NewSource(o.seed()))
}

// engine builds the trial-engine config for one experiment stage. salt
// decorrelates stages that share an Options value (the points of a sweep,
// different experiments in one run), so no two stages replay the same
// per-trial streams. Every stage takes its salt from the salt* constants
// below — one disjoint thousand-block per experiment, stage offsets well
// under 1000 — so uniqueness is checkable at a glance.
func (o Options) engine(salt int64) engine.Config {
	return engine.Config{Seed: o.seed() + salt*1_000_003, Workers: o.Workers}
}

// Per-experiment salt namespaces. Stages within an experiment add small
// offsets (sweep index, method id, sub-case) to their block; AblationReportBack
// deliberately reuses one salt across its two variants to pair the rounds.
const (
	saltFig06a        = 1000
	saltFig06b        = 2000
	saltFig06c        = 3000
	saltFig06d        = 4000
	saltFig11a        = 5000
	saltFig11b        = 6000
	saltFig12a        = 7000
	saltFig12b        = 8000
	saltFig13a        = 9000
	saltFig14a        = 10000
	saltFig14b        = 11000
	saltFig15         = 12000
	saltFig18         = 13000
	saltFig19a        = 14000
	saltFig19b        = 15000
	saltFourDevices   = 16000
	saltFig20         = 17000
	saltRTT           = 18000
	saltFlipping      = 19000
	saltAblBandWindow = 20000
	saltAblPrefilter  = 21000
	saltAblRestarts   = 22000
	saltAblReportBack = 23000
	saltFig13b        = 24000
	saltFig16         = 25000
	saltIngest        = 26000
)

// analyticalScenario draws one §2.1.5 Monte-Carlo sample: N devices in a
// 60×60×10 m volume, leader centered, user 1 at 4–9 m.
func analyticalScenario(rng *rand.Rand, n int) []geom.Vec3 {
	pts := make([]geom.Vec3, n)
	pts[0] = geom.Vec3{X: 30, Y: 30, Z: rng.Float64() * 10}
	ang := rng.Float64() * 2 * math.Pi
	r := 4 + 5*rng.Float64()
	pts[1] = geom.Vec3{
		X: 30 + r*math.Cos(ang),
		Y: 30 + r*math.Sin(ang),
		Z: rng.Float64() * 10,
	}
	for i := 2; i < n; i++ {
		pts[i] = geom.Vec3{X: rng.Float64() * 60, Y: rng.Float64() * 60, Z: rng.Float64() * 10}
	}
	return pts
}

// analyticalTrial builds the measurement set with the paper's uniform
// error model and runs localization, returning the mean 2D error across
// divers (excluding the leader) or NaN on failure.
func analyticalTrial(rng *rand.Rand, truth []geom.Vec3, e1d, eh, eThetaRad float64, drops int) float64 {
	n := len(truth)
	// One slab for both matrices: 2 allocations instead of 2n+2 per trial,
	// which the engine benchmarks count.
	slab := make([]float64, 2*n*n)
	d := make([][]float64, n)
	w := make([][]float64, n)
	for i := range d {
		d[i] = slab[i*n : (i+1)*n : (i+1)*n]
		w[i] = slab[(n+i)*n : (n+i+1)*n : (n+i+1)*n]
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v := truth[i].Dist(truth[j]) + uniform(rng, e1d)
			if v < 0 {
				v = 0
			}
			d[i][j], d[j][i] = v, v
			w[i][j], w[j][i] = 1, 1
		}
	}
	// Random link drops that keep the graph uniquely realizable and keep
	// the leader→user-1 link (required by the pipeline).
	if drops > 0 {
		g := graph.Complete(n)
		dropped := 0
		for attempts := 0; attempts < 200 && dropped < drops; attempts++ {
			a := rng.Intn(n)
			b := rng.Intn(n)
			if a == b || !g.HasEdge(a, b) {
				continue
			}
			if (a == 0 && b == 1) || (a == 1 && b == 0) {
				continue
			}
			g.RemoveEdge(a, b)
			if !g.UniquelyRealizable() {
				g.AddEdge(a, b)
				continue
			}
			w[a][b], w[b][a] = 0, 0
			dropped++
		}
	}
	depths := make([]float64, n)
	signs := make([]int, n)
	for i := range truth {
		depths[i] = clamp(truth[i].Z+uniform(rng, eh), 0, 40)
	}
	for i := 2; i < n; i++ {
		cross := truth[i].Sub(truth[0]).XY().Cross(truth[1].Sub(truth[0]).XY())
		switch {
		case cross > 0:
			signs[i] = 1
		case cross < 0:
			signs[i] = -1
		}
	}
	bearing := truth[1].Sub(truth[0]).XY().Angle() + uniform(rng, eThetaRad)
	res, err := core.Localize(context.Background(), core.Input{
		D: d, W: w, Depths: depths, MicSigns: signs, PointingBearing: bearing,
	}, core.DefaultConfig())
	if err != nil {
		return math.NaN()
	}
	var sum float64
	for i := 1; i < n; i++ {
		want := truth[i].Sub(truth[0]).XY()
		sum += res.Planar[i].Dist(want)
	}
	return sum / float64(n-1)
}

func uniform(rng *rand.Rand, e float64) float64 {
	if e == 0 {
		return 0
	}
	return e * (2*rng.Float64() - 1)
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// accMeanOverTrials fans trials across the engine, streaming successful
// results (in trial order) into a named sketch; failures are skipped.
// The sketch's exact-mode mean is the same left-fold sum over the same
// divisor the old online-averaging loop computed, so tables are
// bit-identical to the pre-shard code path at any worker count. salt
// keeps each sweep point on its own per-trial streams.
func accMeanOverTrials(opt Options, p *Partial, key string, salt int64, n, trials int, e1d, eh, eTheta float64, drops int) {
	sk := p.Sketch(key)
	stage(opt, p, key, salt, trials, func(_ int, rng *rand.Rand) float64 {
		truth := analyticalScenario(rng, n)
		return analyticalTrial(rng, truth, e1d, eh, eTheta, drops)
	}, func(_ int, v float64) {
		if !math.IsNaN(v) {
			sk.Add(v)
			opt.observe(v)
		}
	})
}

// The §2.1.5 sweeps: each point's trials stream into its own sketch,
// keyed by the figure id and the point's index.
var (
	fig06aErrs  = []float64{0, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0}
	fig06bUsers = []float64{3, 4, 5, 6, 7, 8}
	fig06cDegs  = []float64{0, 2.5, 5, 7.5, 10, 12.5, 15, 17.5, 20}
	fig06dDrops = []float64{0, 1, 2, 3}
)

// fig06Table appends one row per sweep point to a §2.1.5 table: the
// point's x value beside the mean of its sketch.
func fig06Table(p *Partial, pre string, xs []float64, table *stats.Table) *stats.Table {
	for i, x := range xs {
		table.Rows = append(table.Rows, []string{stats.F(x), stats.F(p.Sketch(pre + table.ID + "/" + ik(i)).Mean())})
	}
	return table
}

func accFig06a(opt Options, p *Partial, pre string) {
	trials := opt.samples(200)
	for i, e := range fig06aErrs {
		accMeanOverTrials(opt, p, pre+"fig06a/"+ik(i), saltFig06a+int64(i), 6, trials, e, 0.4, 0, 0)
	}
}

func renderFig06a(_ Options, p *Partial, pre string) *stats.Table {
	return fig06Table(p, pre, fig06aErrs, &stats.Table{
		ID:     "fig06a",
		Title:  "mean 2D error vs 1D ranging error (N=6, εh=0.4 m)",
		Paper:  "roughly linear growth; ~1 m error at ε1d≈0.8–1.0 m, ~3–4 m at ε1d=2 m",
		Header: []string{"ε1d (m)", "mean 2D err (m)"},
	})
}

func accFig06b(opt Options, p *Partial, pre string) {
	trials := opt.samples(200)
	for i, n := range fig06bUsers {
		accMeanOverTrials(opt, p, pre+"fig06b/"+ik(i), saltFig06b+int64(i), int(n), trials, 0.8, 0.4, 0, 0)
	}
}

func renderFig06b(_ Options, p *Partial, pre string) *stats.Table {
	return fig06Table(p, pre, fig06bUsers, &stats.Table{
		ID:     "fig06b",
		Title:  "mean 2D error vs number of users (ε1d=0.8, εh=0.4)",
		Paper:  "error decreases as N grows (≈2 m at N=3 down to <1 m at N=8)",
		Header: []string{"N", "mean 2D err (m)"},
	})
}

func accFig06c(opt Options, p *Partial, pre string) {
	trials := opt.samples(200)
	for i, dg := range fig06cDegs {
		accMeanOverTrials(opt, p, pre+"fig06c/"+ik(i), saltFig06c+int64(i), 6, trials, 0.8, 0.4, geom.Deg2Rad(dg), 0)
	}
}

func renderFig06c(_ Options, p *Partial, pre string) *stats.Table {
	return fig06Table(p, pre, fig06cDegs, &stats.Table{
		ID:     "fig06c",
		Title:  "mean 2D error vs orientation error (N=6, ε1d=0.8, εh=0.4)",
		Paper:  "grows with pointing error: ~1 m at 0° to ~2.5–3 m at 20°",
		Header: []string{"εθ (deg)", "mean 2D err (m)"},
	})
}

func accFig06d(opt Options, p *Partial, pre string) {
	trials := opt.samples(200)
	for i, k := range fig06dDrops {
		accMeanOverTrials(opt, p, pre+"fig06d/"+ik(i), saltFig06d+int64(i), 6, trials, 0.8, 0.4, 0, int(k))
	}
}

func renderFig06d(_ Options, p *Partial, pre string) *stats.Table {
	return fig06Table(p, pre, fig06dDrops, &stats.Table{
		ID:     "fig06d",
		Title:  "mean 2D error vs dropped links (N=6, ε1d=0.8, εh=0.4)",
		Paper:  "mild growth with dropped links (~1 m at 0 to ~1.5–2 m at 3)",
		Header: []string{"dropped links", "mean 2D err (m)"},
	})
}
