// Package mds implements weighted multidimensional scaling by majorization
// — the SMACOF algorithm of De Leeuw & Mair that §2.1.2 of the paper uses
// to turn (possibly incomplete) pairwise distances into a 2D topology.
package mds

import (
	"fmt"
	"math"
	"math/rand"

	"uwpos/internal/geom"
	"uwpos/internal/matrix"
)

// Options tunes the solver.
type Options struct {
	MaxIter int // majorization iterations (default 200)
	// Rng drives the random initialization fallback; if nil a fixed-seed
	// source is used so results are reproducible.
	Rng *rand.Rand
	// Restarts adds this many extra runs from random initializations and
	// keeps the lowest-stress result; SMACOF is a local method and small
	// dive-group problems occasionally have deceptive minima. Default 2.
	// Set to −1 to disable restarts entirely.
	Restarts int
}

// stressEps is the relative stress-improvement stopping threshold: the
// iteration stops once a Guttman step lowers stress by no more than this
// fraction.
const stressEps = 1e-9

func (o *Options) defaults() {
	if o.MaxIter == 0 {
		o.MaxIter = 200
	}
	if o.Rng == nil {
		o.Rng = rand.New(rand.NewSource(1))
	}
	if o.Restarts == 0 {
		o.Restarts = 2
	}
	if o.Restarts < 0 {
		o.Restarts = 0
	}
}

// Result is the solver output.
type Result struct {
	Positions  []geom.Vec2 // estimated 2D configuration (centered at the weighted mean)
	Stress     float64     // raw stress σ = Σ w_ij (D_ij − d_ij)²
	NormStress float64     // sqrt(σ / Σ w_ij): RMS per-link residual in input units (metres)
	Iterations int
	Converged  bool
}

// Solve runs weighted SMACOF on the n×n dissimilarity matrix dist with
// symmetric non-negative weights w (0 marks a missing link). It returns an
// error for malformed input or when the weight graph leaves the problem
// degenerate (no links at all).
func Solve(dist, w [][]float64, opts Options) (Result, error) {
	n := len(dist)
	if n == 0 {
		return Result{}, fmt.Errorf("mds: empty distance matrix")
	}
	for i := range dist {
		if len(dist[i]) != n {
			return Result{}, fmt.Errorf("mds: distance row %d has length %d, want %d", i, len(dist[i]), n)
		}
	}
	if len(w) != n {
		return Result{}, fmt.Errorf("mds: weight matrix size %d, want %d", len(w), n)
	}
	for i := range w {
		if len(w[i]) != n {
			return Result{}, fmt.Errorf("mds: weight row %d has length %d, want %d", i, len(w[i]), n)
		}
	}
	opts.defaults()
	var wsum float64
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if w[i][j] < 0 {
				return Result{}, fmt.Errorf("mds: negative weight at (%d,%d)", i, j)
			}
			if w[i][j] > 0 && (math.IsNaN(dist[i][j]) || dist[i][j] < 0) {
				return Result{}, fmt.Errorf("mds: invalid distance %g at weighted link (%d,%d)", dist[i][j], i, j)
			}
			wsum += w[i][j]
		}
	}
	if wsum == 0 {
		return Result{}, fmt.Errorf("mds: all links missing")
	}
	if n == 1 {
		return Result{Positions: []geom.Vec2{{}}, Converged: true}, nil
	}

	// V = Σ w_ij (e_i−e_j)(e_i−e_j)ᵀ, the weight Laplacian; its
	// pseudo-inverse absorbs the translation null space.
	v := matrix.New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			wij := symWeight(w, i, j)
			if wij <= 0 {
				continue
			}
			v.Add(i, j, -wij)
			v.Add(i, i, wij)
		}
	}
	vInv := matrix.PseudoInverse(v, 1e-10)

	// Scale for random restarts: the typical measured distance.
	var dSum float64
	var dCount int
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if symWeight(w, i, j) > 0 {
				dSum += symDist(dist, i, j)
				dCount++
			}
		}
	}
	scale := dSum / float64(dCount)

	res := solveFrom(dist, w, initialConfig(dist, w, opts), vInv, opts)
	for r := 0; r < opts.Restarts; r++ {
		init := make([]geom.Vec2, n)
		for i := range init {
			init[i] = geom.Vec2{X: scale * opts.Rng.NormFloat64(), Y: scale * opts.Rng.NormFloat64()}
		}
		if alt := solveFrom(dist, w, init, vInv, opts); alt.Stress < res.Stress {
			res = alt
		}
	}
	res.NormStress = math.Sqrt(res.Stress / wsum)
	center(res.Positions)
	return res, nil
}

func solveFrom(dist, w [][]float64, x []geom.Vec2, vInv *matrix.Mat, opts Options) Result {
	stress := stressOf(dist, w, x)
	res := Result{Positions: x, Stress: stress}
	var scr gtScratch
	for iter := 1; iter <= opts.MaxIter; iter++ {
		x = guttmanTransform(dist, w, x, vInv, &scr)
		newStress := stressOf(dist, w, x)
		res.Positions = x
		res.Stress = newStress
		res.Iterations = iter
		if stress-newStress <= stressEps*math.Max(stress, 1e-300) {
			res.Converged = true
			break
		}
		stress = newStress
	}
	return res
}

func symWeight(w [][]float64, i, j int) float64 {
	a := w[i][j]
	if b := w[j][i]; b > a {
		return b
	}
	return a
}

func symDist(d [][]float64, i, j int) float64 {
	a := d[i][j]
	b := d[j][i]
	if b > 0 && (a == 0 || math.IsNaN(a)) {
		return b
	}
	return a
}

// gtScratch carries guttmanTransform's temporaries across one solveFrom
// run. The majorization loop is the topology solver's allocation hot spot
// — every Localize call runs tens of iterations times restarts, and each
// used to allocate B, two products and a fresh position slice — so the
// matrices are Reset-reused and positions double-buffer. The buffers
// alternate, so the output never aliases the configuration being read.
type gtScratch struct {
	b, t, xm, nx matrix.Mat
	pos          [2][]geom.Vec2
	flip         int
}

// guttmanTransform computes X⁺ = V⁺ B(X) X. Results are bit-identical to
// the allocate-per-call version (same fill and accumulation order; see
// matrix.MulInto).
func guttmanTransform(dist, w [][]float64, x []geom.Vec2, vInv *matrix.Mat, scr *gtScratch) []geom.Vec2 {
	n := len(x)
	b := &scr.b
	b.Reset(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			wij := symWeight(w, i, j)
			if wij <= 0 {
				continue
			}
			dij := x[i].Dist(x[j])
			if dij < 1e-12 {
				continue // coincident points contribute zero (subgradient)
			}
			val := -wij * symDist(dist, i, j) / dij
			b.Add(i, j, val)
			b.Add(i, i, -val)
		}
	}
	xm := &scr.xm
	xm.Reset(n, 2)
	for i, p := range x {
		xm.Set(i, 0, p.X)
		xm.Set(i, 1, p.Y)
	}
	nx := matrix.MulInto(&scr.nx, matrix.MulInto(&scr.t, vInv, b), xm)
	out := scr.pos[scr.flip]
	if cap(out) < n {
		out = make([]geom.Vec2, n)
	}
	out = out[:n]
	scr.pos[scr.flip] = out
	scr.flip ^= 1
	for i := range out {
		out[i] = geom.Vec2{X: nx.At(i, 0), Y: nx.At(i, 1)}
	}
	return out
}

func stressOf(dist, w [][]float64, x []geom.Vec2) float64 {
	var s float64
	n := len(x)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			wij := symWeight(w, i, j)
			if wij <= 0 {
				continue
			}
			r := symDist(dist, i, j) - x[i].Dist(x[j])
			s += wij * r * r
		}
	}
	return s
}

// initialConfig seeds the iteration: classical MDS on the
// geodesic-completed distance matrix, else random.
func initialConfig(dist, w [][]float64, opts Options) []geom.Vec2 {
	n := len(dist)
	full := completeByGeodesics(dist, w)
	if full != nil {
		if x := classicalMDS(full); x != nil {
			// Tiny jitter breaks exact-degeneracy (e.g. collinear input).
			for i := range x {
				x[i].X += 1e-6 * opts.Rng.NormFloat64()
				x[i].Y += 1e-6 * opts.Rng.NormFloat64()
			}
			return x
		}
	}
	out := make([]geom.Vec2, n)
	for i := range out {
		out[i] = geom.Vec2{X: opts.Rng.NormFloat64(), Y: opts.Rng.NormFloat64()}
	}
	return out
}

// completeByGeodesics fills missing entries with shortest-path distances
// (Floyd–Warshall over measured links). Returns nil if the link graph is
// disconnected.
func completeByGeodesics(dist, w [][]float64) [][]float64 {
	n := len(dist)
	full := make([][]float64, n)
	for i := range full {
		full[i] = make([]float64, n)
		for j := range full[i] {
			switch {
			case i == j:
				full[i][j] = 0
			case symWeight(w, i, j) > 0:
				full[i][j] = symDist(dist, i, j)
			default:
				full[i][j] = math.Inf(1)
			}
		}
	}
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if d := full[i][k] + full[k][j]; d < full[i][j] {
					full[i][j] = d
				}
			}
		}
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if math.IsInf(full[i][j], 1) {
				return nil
			}
		}
	}
	return full
}

// classicalMDS computes the 2D Torgerson embedding of a complete distance
// matrix. Returns nil when the spectrum is unusable.
func classicalMDS(full [][]float64) []geom.Vec2 {
	n := len(full)
	d := matrix.New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			d.Set(i, j, full[i][j])
		}
	}
	b := matrix.DoubleCenter(d)
	vals, vecs := matrix.EigSym(b)
	if len(vals) < 2 || vals[0] <= 0 {
		return nil
	}
	out := make([]geom.Vec2, n)
	s0 := math.Sqrt(math.Max(vals[0], 0))
	s1 := 0.0
	if len(vals) > 1 && vals[1] > 0 {
		s1 = math.Sqrt(vals[1])
	}
	for i := 0; i < n; i++ {
		out[i] = geom.Vec2{X: s0 * vecs.At(i, 0), Y: s1 * vecs.At(i, 1)}
	}
	return out
}

func center(x []geom.Vec2) {
	var c geom.Vec2
	for _, p := range x {
		c = c.Add(p)
	}
	c = c.Scale(1 / float64(len(x)))
	for i := range x {
		x[i] = x[i].Sub(c)
	}
}
