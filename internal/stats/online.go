// Online (streaming) aggregation. The paper's figures are distribution
// summaries — medians, 95th percentiles, error CDFs — over thousands of
// Monte-Carlo trials. Collect-then-Percentile pins every trial result in
// memory until the run ends; the types here consume results one at a time
// from an engine.Stream sink, so trial counts scale past memory while the
// summaries stay exact (Welford) or boundedly approximate (Sketch beyond
// its exact threshold).

package stats

import (
	"math"
	"math/rand"
)

// Welford is an online mean/variance accumulator (Welford's algorithm):
// O(1) memory, numerically stable, exact mean and sample variance for any
// stream length. The zero value is ready to use. Results depend on
// insertion order only through floating-point rounding; feed it from an
// order-deterministic source (engine.StreamOrderedRange, or a serial loop)
// when bit-reproducibility across worker counts matters.
type Welford struct {
	n    int64
	mean float64
	m2   float64
}

// Add consumes one observation.
func (w *Welford) Add(v float64) {
	w.n++
	d := v - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (v - w.mean)
}

// Mean returns the running mean (NaN for an empty accumulator).
func (w *Welford) Mean() float64 {
	if w.n == 0 {
		return math.NaN()
	}
	return w.mean
}

// Var returns the running sample variance (NaN for n < 2).
func (w *Welford) Var() float64 {
	if w.n < 2 {
		return math.NaN()
	}
	return w.m2 / float64(w.n-1)
}

// Std returns the running sample standard deviation (NaN for n < 2).
func (w *Welford) Std() float64 { return math.Sqrt(w.Var()) }

// Merge folds another accumulator into w (Chan et al. parallel update),
// for combining per-shard accumulators.
func (w *Welford) Merge(o Welford) {
	if o.n == 0 {
		return
	}
	if w.n == 0 {
		*w = o
		return
	}
	n := w.n + o.n
	d := o.mean - w.mean
	w.m2 += o.m2 + d*d*float64(w.n)*float64(o.n)/float64(n)
	w.mean += d * float64(o.n) / float64(n)
	w.n = n
}

// DefaultSketchSize is the exact-mode threshold and reservoir capacity of
// NewSketch. Default experiment trial counts sit far below it, so figure
// outputs computed through a Sketch are bit-identical to the legacy
// collect-then-Percentile path; past the threshold memory stays fixed and
// quantiles become reservoir estimates.
const DefaultSketchSize = 8192

// sketchSeed seeds every reservoir identically, so a Sketch is a pure
// function of its insertion sequence (no global randomness).
const sketchSeed = 0x5ce7c4a1d

// countingSource wraps the reservoir RNG source and counts every draw it
// hands out. The count is what makes a Sketch serializable past the exact
// threshold: reservoir replacement consumes a history-dependent number of
// draws (Int63n rejection-samples), so the RNG cursor — not the RNG
// struct — is the portable state, exactly like the simulator's
// countingSource in the session snapshots. UnmarshalBinary rebuilds the
// source and fast-forwards it by the recorded count.
type countingSource struct {
	src   rand.Source64
	draws uint64
}

func (c *countingSource) Int63() int64 {
	c.draws++
	return c.src.Int63()
}

func (c *countingSource) Uint64() uint64 {
	c.draws++
	return c.src.Uint64()
}

func (c *countingSource) Seed(s int64) { c.src.Seed(s) }

// newSketchSource builds the canonical reservoir source fast-forwarded by
// draws steps.
func newSketchSource(draws uint64) *countingSource {
	c := &countingSource{src: rand.NewSource(sketchSeed).(rand.Source64)}
	for i := uint64(0); i < draws; i++ {
		c.src.Int63()
	}
	c.draws = draws
	return c
}

// Sketch is a fixed-memory streaming quantile summary with an exact-mode
// fallback: up to its capacity it retains every value and answers
// quantiles exactly (matching Percentile bit for bit); beyond it, it
// degrades to uniform reservoir sampling (Vitter's algorithm R), keeping
// an unbiased fixed-size sample whose quantile error shrinks with
// capacity. Mean and standard deviation are exact at any count: two-pass
// over the retained values in exact mode, Welford beyond.
//
// A Sketch is deterministic given its insertion order; deliver from
// engine.StreamOrderedRange to keep results identical across worker
// counts. Not safe for concurrent use (engine sinks are serialized).
type Sketch struct {
	cap  int
	vals []float64
	w    Welford
	rng  *rand.Rand
	src  *countingSource
}

// NewSketch returns a Sketch with DefaultSketchSize capacity.
func NewSketch() *Sketch { return NewSketchSize(DefaultSketchSize) }

// NewSketchSize returns a Sketch retaining at most capacity values.
// capacity < 2 is raised to 2.
func NewSketchSize(capacity int) *Sketch {
	if capacity < 2 {
		capacity = 2
	}
	return &Sketch{cap: capacity}
}

// Reserve preallocates the sketch's retained-value storage to its full
// capacity and pre-creates the reservoir RNG, so every subsequent Add is
// allocation-free — required by consumers inside allocation-gated steady
// states (the ingest deadline meter). Reserving changes no result: the
// value sequence is unaffected and the RNG is deterministic and only
// consulted past the exact-mode threshold regardless of when it was
// created.
func (s *Sketch) Reserve() {
	if cap(s.vals) < s.cap {
		vals := make([]float64, len(s.vals), s.cap)
		copy(vals, s.vals)
		s.vals = vals
	}
	s.ensureRNG()
}

// ensureRNG lazily builds the deterministic reservoir RNG. The counting
// wrapper changes no drawn value — the underlying source is the same —
// it only records the cursor the codec needs.
func (s *Sketch) ensureRNG() {
	if s.rng == nil {
		s.src = newSketchSource(0)
		s.rng = rand.New(s.src)
	}
}

// Add consumes one observation.
func (s *Sketch) Add(v float64) {
	s.w.Add(v)
	if len(s.vals) < s.cap {
		s.vals = append(s.vals, v)
		return
	}
	// Reservoir replacement: observation n survives with probability cap/n.
	s.ensureRNG()
	if j := s.rng.Int63n(s.w.n); j < int64(s.cap) {
		s.vals[j] = v
	}
}

// Count returns the number of observations consumed.
func (s *Sketch) Count() int64 { return s.w.n }

// Cap returns the sketch's capacity: its exact-mode threshold and
// reservoir size.
func (s *Sketch) Cap() int { return s.cap }

// Exact reports whether every observation is still retained, i.e. whether
// Quantile answers are exact rather than reservoir estimates.
func (s *Sketch) Exact() bool { return s.w.n <= int64(s.cap) }

// Quantile returns the p-th percentile (0–100) of the stream: exact in
// exact mode, a reservoir estimate beyond. NaN for an empty sketch.
func (s *Sketch) Quantile(p float64) float64 {
	qs := s.Quantiles(p)
	return qs[0]
}

// Quantiles returns several percentiles with a single sort of the retained
// sample (the streaming analogue of Summaries).
func (s *Sketch) Quantiles(ps ...float64) []float64 {
	return Summaries(s.vals, ps...)
}

// Mean returns the stream mean: in exact mode the two-pass mean of the
// retained values (bit-identical to Mean over the collected slice),
// otherwise the Welford running mean over all observations.
func (s *Sketch) Mean() float64 {
	if s.Exact() {
		return Mean(s.vals)
	}
	return s.w.Mean()
}

// Std returns the stream sample standard deviation, exact at any count
// (two-pass in exact mode, Welford beyond).
func (s *Sketch) Std() float64 {
	if s.Exact() {
		return Std(s.vals)
	}
	return s.w.Std()
}

// Values returns a copy of the retained sample in insertion order: the
// complete series in exact mode, the current reservoir beyond. Callers
// that need the raw series (tests, benches, CDF plots) read it from here;
// its size is bounded by the sketch capacity regardless of stream length.
func (s *Sketch) Values() []float64 {
	return append([]float64(nil), s.vals...)
}

// Merge folds o into s with insertion-order semantics: o's observations
// are treated as arriving after every observation s has already consumed.
// Folding per-shard sketches into shard 0's sketch in shard-index order
// therefore reconstructs the single-stream sketch.
//
// s and o must have the same capacity. A reservoir-mode o folded into a
// larger s would leave s holding fewer values than it consumed while
// Exact still reported true, so its quantiles would silently come from a
// subsample.
//
// While o is exact (it still retains every observation it consumed, i.e.
// each shard saw at most the sketch capacity), the merge literally
// replays o's stream through s.Add, so the result — retained values,
// Welford state, reservoir RNG cursor, every downstream quantile and
// moment — is bit-for-bit identical to one sketch having consumed the
// concatenated stream, even if s itself has already left exact mode.
// This is the regime the sharded-benchmark pipeline guarantees.
//
// If o has left exact mode its unretained observations are gone, so the
// merge degrades gracefully: moments merge exactly by count (Chan et al.,
// via Welford.Merge) and the reservoirs combine by a deterministic
// count-weighted resample driven by s's reservoir RNG. The result is
// still a pure function of the two sketches' states — identical on every
// host — but quantiles are estimates with error comparable to a single
// reservoir of the same capacity (see the merge tolerance tests).
func (s *Sketch) Merge(o *Sketch) {
	if o == nil || o.w.n == 0 {
		return
	}
	if o.Exact() {
		for _, v := range o.vals {
			s.Add(v)
		}
		return
	}
	s.ensureRNG()
	na, nb := s.w.n, o.w.n
	s.w.Merge(o.w)
	a := append([]float64(nil), s.vals...)
	b := append([]float64(nil), o.vals...)
	// Count-weighted resample without replacement: each retained value
	// stands for count/len(reservoir) observations of its stream.
	wa, wb := float64(na), float64(nb)
	var stepA, stepB float64
	if len(a) > 0 {
		stepA = wa / float64(len(a))
	}
	if len(b) > 0 {
		stepB = wb / float64(len(b))
	}
	out := make([]float64, 0, s.cap)
	for len(out) < s.cap && (len(a) > 0 || len(b) > 0) {
		takeA := len(b) == 0 || (len(a) > 0 && s.rng.Float64()*(wa+wb) < wa)
		if takeA {
			i := s.rng.Intn(len(a))
			out = append(out, a[i])
			a[i] = a[len(a)-1]
			a = a[:len(a)-1]
			wa -= stepA
		} else {
			i := s.rng.Intn(len(b))
			out = append(out, b[i])
			b[i] = b[len(b)-1]
			b = b[:len(b)-1]
			wb -= stepB
		}
	}
	s.vals = out
}
