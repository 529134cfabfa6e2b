package mds

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"uwpos/internal/geom"
)

// distMatrix builds exact pairwise distances from points.
func distMatrix(pts []geom.Vec2) [][]float64 {
	n := len(pts)
	d := make([][]float64, n)
	for i := range d {
		d[i] = make([]float64, n)
		for j := range d[i] {
			d[i][j] = pts[i].Dist(pts[j])
		}
	}
	return d
}

func onesWeights(n int) [][]float64 {
	w := make([][]float64, n)
	for i := range w {
		w[i] = make([]float64, n)
		for j := range w[i] {
			if i != j {
				w[i][j] = 1
			}
		}
	}
	return w
}

// procrustes aligns est onto ref (translation+rotation+reflection) and
// returns the max point error — the right metric since MDS output is only
// defined up to congruence.
func procrustes(ref, est []geom.Vec2) float64 {
	n := len(ref)
	var cr, ce geom.Vec2
	for i := 0; i < n; i++ {
		cr = cr.Add(ref[i])
		ce = ce.Add(est[i])
	}
	cr = cr.Scale(1 / float64(n))
	ce = ce.Scale(1 / float64(n))
	// Cross-covariance.
	var sxx, sxy, syx, syy float64
	for i := 0; i < n; i++ {
		a := ref[i].Sub(cr)
		b := est[i].Sub(ce)
		sxx += b.X * a.X
		sxy += b.X * a.Y
		syx += b.Y * a.X
		syy += b.Y * a.Y
	}
	best := math.Inf(1)
	for _, mirror := range []bool{false, true} {
		bxx, bxy, byx, byy := sxx, sxy, syx, syy
		if mirror {
			byx, byy = -byx, -byy
		}
		theta := math.Atan2(bxy-byx, bxx+byy)
		var worst float64
		for i := 0; i < n; i++ {
			b := est[i].Sub(ce)
			if mirror {
				b.Y = -b.Y
			}
			r := b.Rotate(theta).Add(cr)
			if e := r.Dist(ref[i]); e > worst {
				worst = e
			}
		}
		if worst < best {
			best = worst
		}
	}
	return best
}

func TestSolveRecoversExactGeometry(t *testing.T) {
	pts := []geom.Vec2{{X: 0, Y: 0}, {X: 10, Y: 0}, {X: 3, Y: 8}, {X: -4, Y: 6}, {X: 5, Y: -7}}
	res, err := Solve(distMatrix(pts), onesWeights(len(pts)), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Error("did not converge")
	}
	if res.NormStress > 1e-5 {
		t.Errorf("normalized stress %g on exact input", res.NormStress)
	}
	if e := procrustes(pts, res.Positions); e > 1e-4 {
		t.Errorf("geometry error %g", e)
	}
}

func TestSolveWithMissingLinks(t *testing.T) {
	pts := []geom.Vec2{{X: 0, Y: 0}, {X: 10, Y: 0}, {X: 3, Y: 8}, {X: -4, Y: 6}, {X: 5, Y: -7}, {X: 12, Y: 9}}
	d := distMatrix(pts)
	w := onesWeights(len(pts))
	// Remove three links; the remaining graph is still uniquely realizable.
	w[0][5], w[5][0] = 0, 0
	w[1][3], w[3][1] = 0, 0
	w[2][4], w[4][2] = 0, 0
	res, err := Solve(d, w, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if e := procrustes(pts, res.Positions); e > 1e-3 {
		t.Errorf("geometry error %g with missing links", e)
	}
}

func TestSolveNoisyDistances(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pts := []geom.Vec2{{X: 0, Y: 0}, {X: 15, Y: 0}, {X: 6, Y: 12}, {X: -8, Y: 9}, {X: 4, Y: -11}, {X: 18, Y: 14}}
	d := distMatrix(pts)
	for i := range d {
		for j := range d[i] {
			if i < j {
				e := 0.5 * (2*rng.Float64() - 1)
				d[i][j] += e
				d[j][i] = d[i][j]
			}
		}
	}
	res, err := Solve(d, onesWeights(len(pts)), Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Residual should be of the noise order, not the geometry order.
	if res.NormStress > 1.0 {
		t.Errorf("normalized stress %g", res.NormStress)
	}
	if e := procrustes(pts, res.Positions); e > 1.5 {
		t.Errorf("geometry error %g with 0.5 m noise", e)
	}
}

func TestSolveOutlierRaisesStress(t *testing.T) {
	// 6 nodes fully connected: 15 links against 9 effective dof, enough
	// redundancy that a corrupted link cannot be absorbed by deforming
	// the topology.
	pts := []geom.Vec2{{X: 0, Y: 0}, {X: 15, Y: 0}, {X: 6, Y: 12}, {X: -8, Y: 9}, {X: 4, Y: -11}, {X: 18, Y: 14}}
	d := distMatrix(pts)
	clean, err := Solve(d, onesWeights(len(pts)), Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt one link by +8 m (a severe multipath outlier).
	d[1][2] += 8
	d[2][1] = d[1][2]
	dirty, err := Solve(d, onesWeights(len(pts)), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if dirty.NormStress < clean.NormStress+0.5 {
		t.Errorf("outlier did not raise stress: %g vs %g", dirty.NormStress, clean.NormStress)
	}
	// Zeroing the corrupted link must restore a clean fit.
	w := onesWeights(len(pts))
	w[1][2], w[2][1] = 0, 0
	fixed, err := Solve(d, w, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if fixed.NormStress > 1e-4 {
		t.Errorf("stress %g after dropping outlier", fixed.NormStress)
	}
}

func TestOutlierCanDeformSmallNetworks(t *testing.T) {
	// Documented hazard (§2.1.3): with only 5 nodes (10 links, 7 dof) a
	// large outlier can be *almost realizable* by a deformed topology, so
	// stress barely rises while positions go badly wrong. This is exactly
	// why the paper treats outlier detection as essential and why more
	// divers make the design more resilient (§5).
	pts := []geom.Vec2{{X: 0, Y: 0}, {X: 10, Y: 0}, {X: 3, Y: 8}, {X: -4, Y: 6}, {X: 5, Y: -7}}
	d := distMatrix(pts)
	d[1][2] += 8
	d[2][1] = d[1][2]
	res, err := Solve(d, onesWeights(len(pts)), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.NormStress > 0.5 {
		t.Skip("solver landed in the high-stress basin; deformation not exhibited here")
	}
	// Low stress, yet the geometry is far from the truth.
	if e := procrustes(pts, res.Positions); e < 2 {
		t.Errorf("expected deformed topology, procrustes error only %g m", e)
	}
}

func TestSolveMonotoneStress(t *testing.T) {
	// SMACOF's majorization guarantees non-increasing stress. Verify via
	// successively tighter iteration caps.
	rng := rand.New(rand.NewSource(5))
	pts := make([]geom.Vec2, 7)
	for i := range pts {
		pts[i] = geom.Vec2{X: rng.Float64() * 30, Y: rng.Float64() * 30}
	}
	d := distMatrix(pts)
	for i := range d {
		for j := range d[i] {
			if i < j {
				d[i][j] += 0.3 * rng.NormFloat64()
				if d[i][j] < 0 {
					d[i][j] = 0
				}
				d[j][i] = d[i][j]
			}
		}
	}
	w := onesWeights(len(pts))
	prev := math.Inf(1)
	for _, iters := range []int{1, 2, 5, 10, 50, 100} {
		res, err := Solve(d, w, Options{MaxIter: iters})
		if err != nil {
			t.Fatal(err)
		}
		if res.Stress > prev+1e-9 {
			t.Errorf("stress rose from %g to %g at %d iterations", prev, res.Stress, iters)
		}
		prev = res.Stress
	}
}

func TestSolveInputValidation(t *testing.T) {
	if _, err := Solve(nil, nil, Options{}); err == nil {
		t.Error("empty input should error")
	}
	d := [][]float64{{0, 1}, {1, 0}}
	if _, err := Solve(d, [][]float64{{0, 0}, {0, 0}}, Options{}); err == nil {
		t.Error("all-missing weights should error")
	}
	if _, err := Solve(d, [][]float64{{0, -1}, {-1, 0}}, Options{}); err == nil {
		t.Error("negative weight should error")
	}
	if _, err := Solve([][]float64{{0, 1}}, onesWeights(2), Options{}); err == nil {
		t.Error("ragged distance matrix should error")
	}
	if _, err := Solve([][]float64{{0, math.NaN()}, {1, 0}}, onesWeights(2), Options{}); err == nil {
		t.Error("NaN distance on a live link should error")
	}
	if _, err := Solve(d, [][]float64{{0, 1}}, Options{}); err == nil {
		t.Error("wrong weight size should error")
	}
}

func TestSolveSingleAndPair(t *testing.T) {
	res, err := Solve([][]float64{{0}}, [][]float64{{0}}, Options{})
	if err == nil {
		// Single node has no links; expect the all-missing error instead.
		t.Errorf("n=1 produced %+v; want all-links-missing error", res)
	}
	// A pair reproduces its separation.
	d := [][]float64{{0, 7}, {7, 0}}
	res, err = Solve(d, onesWeights(2), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Positions[0].Dist(res.Positions[1]); math.Abs(got-7) > 1e-6 {
		t.Errorf("pair distance %g, want 7", got)
	}
}

func TestSolveDisconnectedFallsBackToRandomInit(t *testing.T) {
	// Two separate pairs: geodesic completion fails, random init engages;
	// each measured link must still be honoured.
	d := [][]float64{
		{0, 5, 0, 0},
		{5, 0, 0, 0},
		{0, 0, 0, 3},
		{0, 0, 3, 0},
	}
	w := make([][]float64, 4)
	for i := range w {
		w[i] = make([]float64, 4)
	}
	w[0][1], w[1][0] = 1, 1
	w[2][3], w[3][2] = 1, 1
	res, err := Solve(d, w, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if g01 := res.Positions[0].Dist(res.Positions[1]); math.Abs(g01-5) > 1e-3 {
		t.Errorf("link 0-1 distance %g, want 5", g01)
	}
	if g23 := res.Positions[2].Dist(res.Positions[3]); math.Abs(g23-3) > 1e-3 {
		t.Errorf("link 2-3 distance %g, want 3", g23)
	}
}

func TestNormalizedStressHelpers(t *testing.T) {
	pts := []geom.Vec2{{X: 0, Y: 0}, {X: 4, Y: 0}, {X: 0, Y: 3}}
	d := distMatrix(pts)
	w := onesWeights(3)
	if s := stressOf(d, w, pts); s > 1e-12 {
		t.Errorf("exact config stress %g", s)
	}
	// Perturb one point by 1 m: the normalized stress sqrt(σ/Σw) over the
	// three unit-weight links should be O(1).
	mv := []geom.Vec2{{X: 0, Y: 0}, {X: 4, Y: 0}, {X: 0, Y: 4}}
	ns := math.Sqrt(stressOf(d, w, mv) / 3)
	if ns < 0.3 || ns > 1.5 {
		t.Errorf("normalized stress %g out of expected band", ns)
	}
	if stressOf(d, [][]float64{{0, 0, 0}, {0, 0, 0}, {0, 0, 0}}, mv) != 0 {
		t.Error("zero weights should give 0")
	}
}

// Property: for random uniquely-realizable geometries with exact complete
// distances, SMACOF recovers the configuration up to congruence.
func TestSolveRecoveryProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + int(uint(seed)%4)
		pts := make([]geom.Vec2, n)
		for i := range pts {
			pts[i] = geom.Vec2{X: rng.Float64() * 40, Y: rng.Float64() * 40}
		}
		res, err := Solve(distMatrix(pts), onesWeights(n), Options{})
		if err != nil {
			return false
		}
		return procrustes(pts, res.Positions) < 1e-3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func BenchmarkSolve6Nodes(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	pts := make([]geom.Vec2, 6)
	for i := range pts {
		pts[i] = geom.Vec2{X: rng.Float64() * 30, Y: rng.Float64() * 30}
	}
	d := distMatrix(pts)
	w := onesWeights(6)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Solve(d, w, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
