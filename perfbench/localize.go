package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"uwpos/internal/core"
	"uwpos/internal/engine"
	"uwpos/internal/geom"
	"uwpos/internal/graph"
	"uwpos/internal/mds"
)

// locShape is one slot of localize-mix's repeating op pattern.
type locShape struct {
	n        int // devices
	drops    int // links removed, keeping the graph uniquely realizable
	outliers int // links lengthened by 4–10 m
}

// locShapes is the pattern every 20 ops repeat: twelve clean ops at
// N = 4…8 that take the fast path, then searches that stop at level k of
// Algorithm 1 (k = outliers; level k solves C(links, k) subsets): one
// level at N = 5, 6 and 7, two levels at N = 5, three times two levels at
// N = 6 (~120 solves each) and three levels at N = 6 (~575 solves). The
// tail is shaped so that p50 lands among the clean ops, p90 in the middle
// of the N = 6 two-level mode and p99 on the three-level op, never
// between two modes. Searches at N = 7 and 8 with several outliers cost
// 0.6–5 s each, so a few of them would decide a run; a single 4–10 m
// outlier among N = 8's 28 links rarely lifts the stress past 1.5 m. The
// mix leaves both out.
var locShapes = []locShape{
	{4, 0, 0}, {5, 1, 0}, {6, 0, 0}, {7, 1, 0}, {8, 0, 0}, {4, 1, 0},
	{5, 0, 0}, {6, 1, 0}, {7, 0, 0}, {8, 1, 0}, {5, 0, 0}, {6, 0, 0},
	{5, 0, 1}, {6, 0, 1}, {7, 0, 1}, {5, 0, 2},
	{6, 0, 2}, {6, 0, 2}, {6, 0, 2},
	{6, 0, 3},
}

const (
	locListLen = 400 // ops generated per seed; runs cycle through them
	locChecked = 40  // checked pass: the first two patterns
)

var localizeWorkload = workload{
	name:   "localize-mix",
	pinned: true,
	why:    "Algorithm 1 alone on generated inputs: its outlier drop search sets ops_per_s, the fast path sets op_p50; no acoustics",
	setup: func(cfg setupConfig) (instance, error) {
		if cfg.smoke {
			// Tests: one pattern, checked once, no warm-up.
			return &locInstance{ops: genLocOps(cfg.seed, len(locShapes)), checked: len(locShapes)}, nil
		}
		l := &locInstance{ops: genLocOps(cfg.seed, locListLen), checked: locChecked}
		// Warm-up: one pattern of a fixed list, seed-independent.
		for _, op := range genLocOps(0, len(locShapes)) {
			if _, err := core.Localize(context.Background(), op.in, core.DefaultConfig()); err != nil {
				return nil, err
			}
		}
		return l, nil
	},
}

// locOp is one generated localization problem with its ground truth.
type locOp struct {
	in       core.Input
	truth    []geom.Vec3
	outliers []graph.Edge
}

// genLocOps builds the op list: op i has the shape locShapes[i mod 20]
// and is a draw from that shape's pool (locpool.go), picked with
// engine.Rand(seed, i). The pools hold draws on which Algorithm 1 took
// the shape's intended path when they were made, so every pattern costs
// about the same; drawing an op asks nothing of the solver, so a solver
// change times the same inputs as its parent.
func genLocOps(seed int64, n int) []locOp {
	ops := make([]locOp, n)
	for i := range ops {
		s := i % len(locShapes)
		pool := locPool[s]
		ops[i] = poolDraw(s, pool[engine.Rand(seed, i).Intn(len(pool))])
	}
	return ops
}

// poolDraw is draw j of shape s: genLocOp from engine.Rand(s, j).
func poolDraw(s, j int) locOp {
	return genLocOp(engine.Rand(int64(s), j), locShapes[s])
}

// genLocOp draws a dive group in a 30 m square, 1–9 m deep, with ±0.3 m
// ranging noise, ±0.1 m depth noise and the shape's drops and outliers,
// after internal/experiments/analytical.go.
func genLocOp(rng *rand.Rand, sh locShape) locOp {
	n := sh.n
	uni := func(e float64) float64 { return e * (2*rng.Float64() - 1) }
	truth := make([]geom.Vec3, n)
	for i := range truth {
		truth[i] = geom.Vec3{X: 30 * rng.Float64(), Y: 30 * rng.Float64(), Z: 1 + 8*rng.Float64()}
	}
	d, w := make([][]float64, n), make([][]float64, n)
	for i := range d {
		d[i], w[i] = make([]float64, n), make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v := max(truth[i].Dist(truth[j])+uni(0.3), 0)
			d[i][j], d[j][i] = v, v
			w[i][j], w[j][i] = 1, 1
		}
	}
	g := graph.Complete(n)
	for dropped, attempts := 0, 0; dropped < sh.drops && attempts < 200; attempts++ {
		a, b := rng.Intn(n), rng.Intn(n)
		if a == b || !g.HasEdge(a, b) || (min(a, b) == 0 && max(a, b) == 1) {
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
	// Outliers go on links whose joint removal keeps the graph uniquely
	// realizable, so the search can find them at its k-th level.
	var outliers []graph.Edge
	edges := g.Edges()
	for attempts := 0; len(outliers) < sh.outliers && attempts < 200; attempts++ {
		e := edges[rng.Intn(len(edges))]
		if contains(outliers, e) || !g.WithoutEdges(append(outliers[:len(outliers):len(outliers)], e)).UniquelyRealizable() {
			continue
		}
		outliers = append(outliers, e)
		v := d[e.Low][e.High] + 4 + 6*rng.Float64()
		d[e.Low][e.High], d[e.High][e.Low] = v, v
	}
	depths := make([]float64, n)
	signs := make([]int, n)
	for i := range truth {
		depths[i] = max(truth[i].Z+uni(0.1), 0)
		if i >= 2 {
			switch c := truth[i].Sub(truth[0]).XY().Cross(truth[1].Sub(truth[0]).XY()); {
			case c > 0:
				signs[i] = 1
			case c < 0:
				signs[i] = -1
			}
		}
	}
	return locOp{
		in: core.Input{D: d, W: w, Depths: depths, MicSigns: signs,
			PointingBearing: truth[1].Sub(truth[0]).XY().Angle()},
		truth:    truth,
		outliers: outliers,
	}
}

func contains(es []graph.Edge, e graph.Edge) bool {
	for _, x := range es {
		if x == e {
			return true
		}
	}
	return false
}

type locInstance struct {
	ops     []locOp
	checked int // ops in the checked pass

	errs      []float64 // checked pass: 2D errors of devices 1..N-1
	positions []geom.Vec3

	// traced phase only
	fast, search   []time.Duration
	injected, hit  int // injected outlier links, and those dropped
	dropped, wrong int // dropped links, and those not injected
}

func (l *locInstance) run(p phase) *recorder {
	rec := &recorder{ops: make([]time.Duration, 0, 4096)}
	ctx := context.Background()
	cfg := core.DefaultConfig()
	for i := 0; ; i++ {
		if i >= l.checked && !time.Now().Before(p.deadline) {
			break
		}
		op := l.ops[i%len(l.ops)]
		rec.attempted++
		start := time.Now()
		s := p.tr.begin("core.Localize", -1, i)
		res, err := core.Localize(ctx, op.in, cfg)
		p.tr.end(s)
		elapsed := time.Since(start)
		if err != nil {
			rec.fail("op %d: %v", i, err)
			continue
		}
		rec.ops = append(rec.ops, elapsed)
		for k, q := range res.Positions {
			if !finite(q.X, q.Y, q.Z) {
				rec.fail("op %d: device %d position not finite: %v", i, k, q)
			}
		}
		if p.first && i < l.checked {
			l.positions = append(l.positions, res.Positions...)
			for k := 1; k < len(op.truth); k++ {
				want := op.truth[k].Sub(op.truth[0]).XY()
				l.errs = append(l.errs, res.Planar[k].Dist(want))
			}
		}
		if p.tr != nil {
			l.traceOp(p.tr, i, op, res, elapsed)
		}
	}
	return rec
}

// traceOp splits the op by path, scores the drops against the injected
// outliers and times one SMACOF solve on the op's projected distances.
func (l *locInstance) traceOp(tr *tracer, i int, op locOp, res *core.Result, elapsed time.Duration) {
	if res.OutlierSearch {
		l.search = append(l.search, elapsed)
	} else {
		l.fast = append(l.fast, elapsed)
	}
	l.injected += len(op.outliers)
	l.dropped += len(res.Dropped)
	for _, e := range res.Dropped {
		if contains(op.outliers, e) {
			l.hit++
		} else {
			l.wrong++
		}
	}
	d2d, err := core.ProjectTo2D(op.in.D, op.in.W, op.in.Depths)
	if err != nil {
		return
	}
	s := tr.begin("probe.mds.Solve", -1, i)
	_, _ = mds.Solve(d2d, op.in.W, mds.Options{}) // timed only; Localize checked the same solve
	tr.end(s)
}

func (l *locInstance) verify() verdict {
	var v verdict
	if len(l.errs) == 0 {
		v.violations = append(v.violations, "checked pass produced no positions")
	}
	h := newDigest()
	for _, q := range l.positions {
		h.floats(q.X, q.Y, q.Z)
	}
	v.digest = h.sum()
	v.quality = []metric{errQuality("loc_err", l.errs)}
	return v
}

func (l *locInstance) layers(tr *tracer, rec *recorder) []metric {
	ops := len(l.fast) + len(l.search)
	return []metric{
		summary("core.fast_ms", l.fast),
		summary("core.search_ms", l.search),
		{name: "core.search_frac", value: float64(len(l.search)) / float64(ops), unit: "frac",
			note: fmt.Sprintf("%d of %d ops", len(l.search), ops)},
		summary("mds.solve_ms", tr.durations("probe.mds.Solve")),
		{name: "core.outlier_recall", value: float64(l.hit) / float64(l.injected), unit: "frac",
			note: fmt.Sprintf("%d of %d injected links dropped", l.hit, l.injected)},
		{name: "core.false_drop_frac", value: float64(l.wrong) / float64(max(l.dropped, 1)), unit: "frac",
			note: fmt.Sprintf("%d of %d dropped links not injected", l.wrong, l.dropped)},
	}
}

func (l *locInstance) close() {}
