// Shard coordination: distributing one experiment's trials across
// processes (or hosts) and folding the pieces back together with no
// observable difference from a single-process run.
//
// The design splits every shardable experiment into two halves:
//
//   - an accumulate half that runs trials and streams their contributions
//     into a Partial — a keyed bag of stats.Sketch quantile state and
//     integer counters;
//   - a render half that turns a Partial into the experiment's
//     stats.Table without running anything.
//
// A whole run is accumulate-then-render over a fresh Partial, so the
// unsharded path and the sharded path cannot drift: they share one
// rendering code path, and the byte-identity invariant reduces to
// "merged Partial == single-run Partial", which the stats layer
// guarantees for exact-mode sketches (see stats.Sketch.Merge) and
// trivially for counters.
//
// Trial indices are global: shard i of c runs the contiguous span
// [n·i/c, n·(i+1)/c) of each stage's trial sequence through
// engine.EachRange, so trial t draws from engine.TrialSeed(S, t) exactly
// as in a full run, and concatenating shard contributions in shard-index
// order replays the full run's insertion sequence.
package experiments

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"strconv"

	"uwpos/internal/engine"
	"uwpos/internal/stats"
	"uwpos/internal/wire"
)

// ik formats a small index for use in Partial key paths.
func ik(i int) string { return strconv.Itoa(i) }

// ShardSpec selects which contiguous slice of every trial stage an
// Options value runs. The zero value (and any Count ≤ 1) means "the
// whole run".
type ShardSpec struct {
	Index int `json:"index"`
	Count int `json:"count"`
}

// Validate rejects malformed specs.
func (s ShardSpec) Validate() error {
	if s.Count <= 1 && s.Index == 0 {
		return nil
	}
	if s.Count < 1 {
		return fmt.Errorf("shard count %d < 1", s.Count)
	}
	if s.Index < 0 || s.Index >= s.Count {
		return fmt.Errorf("shard index %d outside [0, %d)", s.Index, s.Count)
	}
	return nil
}

// span returns this shard's half-open range of a stage with n trials.
// Spans partition [0, n) across shards with sizes differing by at most
// one; small stages leave high shards empty rather than redistributing,
// which keeps every span a function of (n, Index, Count) alone.
func (s ShardSpec) span(n int) (lo, hi int) {
	if s.Count <= 1 {
		return 0, n
	}
	return n * s.Index / s.Count, n * (s.Index + 1) / s.Count
}

// tick notifies the Checkpoint hook that one trial has been delivered
// and its contributions are fully folded into the Partial.
func (o Options) tick() {
	if o.Checkpoint != nil {
		o.Checkpoint()
	}
}

// Partial is one experiment's mergeable accumulator state: named quantile
// sketches, named integer counters, and per-stage delivered-trial counts
// (the checkpoint cursor). Key iteration follows insertion order, which
// every accumulate half fixes deterministically, so codec bytes and merge
// results are reproducible.
type Partial struct {
	sketches    map[string]*stats.Sketch
	sketchOrder []string
	counters    map[string]int64
	counterOrd  []string
	done        map[string]int64
	doneOrder   []string
}

// NewPartial returns an empty accumulator.
func NewPartial() *Partial {
	return &Partial{
		sketches: make(map[string]*stats.Sketch),
		counters: make(map[string]int64),
		done:     make(map[string]int64),
	}
}

// Sketch returns the named sketch, creating it empty on first use (so
// render halves can read keys an empty shard span never touched).
func (p *Partial) Sketch(key string) *stats.Sketch {
	if s, ok := p.sketches[key]; ok {
		return s
	}
	s := stats.NewSketch()
	p.sketches[key] = s
	p.sketchOrder = append(p.sketchOrder, key)
	return s
}

// AddCounter adds delta to the named counter.
func (p *Partial) AddCounter(key string, delta int64) {
	if _, ok := p.counters[key]; !ok {
		p.counterOrd = append(p.counterOrd, key)
	}
	p.counters[key] += delta
}

// Counter returns the named counter's value (0 if never touched).
func (p *Partial) Counter(key string) int64 { return p.counters[key] }

// doneOf returns the delivered-trial count of one stage.
func (p *Partial) doneOf(key string) int64 { return p.done[key] }

// markDone records one more delivered trial for a stage.
func (p *Partial) markDone(key string) {
	if _, ok := p.done[key]; !ok {
		p.doneOrder = append(p.doneOrder, key)
	}
	p.done[key]++
}

// Merge folds o into p: sketches merge with o's observations ordered
// after p's (see stats.Sketch.Merge), counters add. Folding shard
// partials in shard-index order therefore reconstructs the single-run
// Partial exactly while shard sketches are in exact mode. Stage cursors
// (done counts) are per-process checkpoint state and do not merge.
func (p *Partial) Merge(o *Partial) {
	if o == nil {
		return
	}
	for _, key := range o.sketchOrder {
		p.Sketch(key).Merge(o.sketches[key])
	}
	for _, key := range o.counterOrd {
		p.AddCounter(key, o.counters[key])
	}
}

const (
	partialMagic   = "UWPB"
	partialVersion = 1
)

// MarshalBinary encodes the accumulator as an internal/wire frame, magic
// "UWPB", version 1, whose body holds three sections — sketches,
// counters, stage cursors — each a u32 count of entries keyed by a
// u32-length-prefixed string. A sketch entry's value is its own
// u32-length-prefixed stats blob; counter and cursor values are i64.
func (p *Partial) MarshalBinary() ([]byte, error) {
	b := wire.Begin(make([]byte, 0, 256), partialMagic, partialVersion)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(p.sketchOrder)))
	for _, key := range p.sketchOrder {
		blob, err := p.sketches[key].MarshalBinary()
		if err != nil {
			return nil, fmt.Errorf("sketch %q: %w", key, err)
		}
		b = appendBlobString(b, key)
		b = binary.LittleEndian.AppendUint32(b, uint32(len(blob)))
		b = append(b, blob...)
	}
	b = appendInt64s(b, p.counterOrd, p.counters)
	b = appendInt64s(b, p.doneOrder, p.done)
	return wire.Seal(b), nil
}

// UnmarshalBinary restores an accumulator encoded by MarshalBinary.
func (p *Partial) UnmarshalBinary(data []byte) error {
	r, err := wire.Open(partialMagic, partialVersion, data)
	if err != nil {
		return err
	}
	out := NewPartial()
	for i, n := 0, int(r.U32()); i < n && r.Err() == nil; i++ {
		key := readBlobString(r)
		blob := r.Bytes(int(r.U32()))
		if r.Err() != nil {
			break
		}
		sk := new(stats.Sketch)
		if err := sk.UnmarshalBinary(blob); err != nil {
			return fmt.Errorf("experiments: partial sketch %q: %w", key, err)
		}
		// Merge folds only equal-capacity sketches, and every Partial
		// sketch comes from NewSketch.
		if sk.Cap() != stats.DefaultSketchSize {
			return fmt.Errorf("experiments: partial sketch %q has capacity %d, want %d", key, sk.Cap(), stats.DefaultSketchSize)
		}
		if _, dup := out.sketches[key]; dup {
			return fmt.Errorf("experiments: duplicate sketch key %q in partial blob", key)
		}
		out.sketches[key] = sk
		out.sketchOrder = append(out.sketchOrder, key)
	}
	if out.counterOrd, err = readInt64s(r, "counter", out.counters); err != nil {
		return err
	}
	if out.doneOrder, err = readInt64s(r, "stage", out.done); err != nil {
		return err
	}
	if err := r.Close(); err != nil {
		return err
	}
	*p = *out
	return nil
}

func appendBlobString(b []byte, s string) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(s)))
	return append(b, s...)
}

func readBlobString(r *wire.Reader) string { return string(r.Bytes(int(r.U32()))) }

// appendInt64s encodes one key → i64 section in key order.
func appendInt64s(b []byte, order []string, vals map[string]int64) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(order)))
	for _, key := range order {
		b = appendBlobString(b, key)
		b = binary.LittleEndian.AppendUint64(b, uint64(vals[key]))
	}
	return b
}

// readInt64s decodes one key → i64 section into vals and returns its key
// order. Read errors stay pending on r for the caller's Close.
func readInt64s(r *wire.Reader, kind string, vals map[string]int64) ([]string, error) {
	var order []string
	for i, n := 0, int(r.U32()); i < n && r.Err() == nil; i++ {
		key := readBlobString(r)
		v := int64(r.U64())
		if r.Err() != nil {
			break
		}
		if _, dup := vals[key]; dup {
			return nil, fmt.Errorf("experiments: duplicate %s key %q in partial blob", kind, key)
		}
		vals[key] = v
		order = append(order, key)
	}
	return order, nil
}

// stage runs one experiment stage's trials — this shard's span of the
// global sequence [0, n), resuming past any checkpointed prefix — and
// delivers results to sink in trial order. sink must fold each trial's
// full contribution into p before returning: the per-trial tick that
// follows it is the moment a checkpoint may serialize p, and the
// delivered count advances with it, so a restored Partial resumes at
// exactly the first unfolded trial.
func stage[T any](opt Options, p *Partial, key string, salt int64, n int, fn func(trial int, rng *rand.Rand) T, sink func(trial int, v T)) {
	lo, hi := opt.Shard.span(n)
	start := lo + int(p.doneOf(key))
	if start > hi {
		start = hi
	}
	engine.EachRange(opt.engine(salt), start, hi, fn, func(t int, v T) {
		sink(t, v)
		p.markDone(key)
		opt.tick()
	})
}

// serialStage runs a non-engine (single-pass, serial-rng) stage on shard
// 0 only, skipping it entirely if a checkpoint already recorded it.
func serialStage(opt Options, p *Partial, key string, fn func()) {
	lo, hi := opt.Shard.span(1)
	if hi <= lo || p.doneOf(key) > 0 {
		return
	}
	fn()
	p.markDone(key)
	opt.tick()
}

// Experiment is one registry entry: an id bound to its accumulate and
// render halves. pre namespaces Partial keys so composite experiments
// (headline) can embed other experiments' stages without collision.
type Experiment struct {
	ID string
	// Live marks an experiment that measures a running pipeline (latency,
	// deadline misses): its results are not a fold over independent
	// trials, so it never shards. It accumulates nothing, and its render
	// half runs the whole experiment.
	Live bool
	// OptIn keeps an experiment out of uwbench's "all": it runs only when
	// named.
	OptIn  bool
	acc    func(opt Options, p *Partial, pre string)
	render func(opt Options, p *Partial, pre string) *stats.Table
}

// noAcc is the accumulate half of an experiment with no mergeable state.
func noAcc(Options, *Partial, string) {}

// whole adapts an experiment that runs end to end into a render half.
func whole(run func(Options) *stats.Table) func(Options, *Partial, string) *stats.Table {
	return func(o Options, _ *Partial, _ string) *stats.Table { return run(o) }
}

// registry lists every experiment in the paper's order, the order "all"
// runs them in.
var registry = []Experiment{
	{ID: "fig06a", acc: accFig06a, render: renderFig06a},
	{ID: "fig06b", acc: accFig06b, render: renderFig06b},
	{ID: "fig06c", acc: accFig06c, render: renderFig06c},
	{ID: "fig06d", acc: accFig06d, render: renderFig06d},
	{ID: "fig11a", acc: accFig11a, render: renderFig11a},
	{ID: "fig11b", acc: accFig11b, render: renderFig11b},
	{ID: "fig12a", acc: accFig12a, render: renderFig12a},
	{ID: "fig12b", acc: accFig12b, render: renderFig12b},
	{ID: "fig13a", acc: accFig13a, render: renderFig13a},
	{ID: "fig13b", acc: accFig13b, render: renderFig13b},
	{ID: "fig14a", acc: accFig14a, render: renderFig14a},
	{ID: "fig14b", acc: accFig14b, render: renderFig14b},
	{ID: "fig15", acc: accFig15, render: renderFig15},
	{ID: "fig16", acc: accFig16, render: renderFig16},
	{ID: "fig22", acc: accFig22, render: renderFig22},
	{ID: "fig18", acc: accFig18, render: renderFig18},
	{ID: "fig19a", acc: accFig19a, render: renderFig19a},
	{ID: "fig19b", acc: accFig19b, render: renderFig19b},
	{ID: "fig19b-4dev", acc: accFourDevices, render: renderFourDevices},
	{ID: "fig20", acc: accFig20, render: renderFig20},
	{ID: "rtt", acc: accRTT, render: renderRTT},
	{ID: "flipping", acc: accFlipping, render: renderFlipping},
	{ID: "battery", acc: noAcc, render: whole(runBattery)},
	{ID: "streaming", Live: true, acc: noAcc, render: whole(runStreaming)},
	{ID: "ingest", Live: true, acc: noAcc, render: whole(runIngest)},
	{ID: "ablation-bandwindow", acc: accAblationBandWindow, render: renderAblationBandWindow},
	{ID: "ablation-prefilter", acc: accAblationPrefilter, render: renderAblationPrefilter},
	{ID: "ablation-restarts", acc: accAblationRestarts, render: renderAblationRestarts},
	{ID: "ablation-reportback", acc: accAblationReportBack, render: renderAblationReportBack},
	{ID: "headline", acc: accHeadline, render: renderHeadline},
	// A load test of the uwposd serving stack: its table reports
	// wall-clock latencies, so it stays out of "all" and the baseline
	// timing gate.
	{ID: "service", Live: true, OptIn: true, acc: noAcc, render: whole(runService)},
}

// Experiments returns the registry in the paper's order.
func Experiments() []Experiment { return append([]Experiment(nil), registry...) }

func lookup(id string) (Experiment, error) {
	for _, e := range registry {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("unknown experiment %q", id)
}

// CanShard reports whether an experiment id runs sharded: it is
// registered and not live.
func CanShard(id string) bool {
	e, err := lookup(id)
	return err == nil && !e.Live
}

// Accumulate runs one experiment's trials (this Options' shard span) into
// p. Safe to call on a checkpoint-restored Partial: completed stage
// prefixes are skipped.
func Accumulate(id string, opt Options, p *Partial) error {
	e, err := lookup(id)
	if err != nil {
		return err
	}
	e.acc(opt, p, "")
	return nil
}

// RenderPartial produces the experiment's table from accumulated (or
// merged) state without running any trials; only an experiment with no
// mergeable state (battery and the live ones) runs whole here. opt must
// carry the same Seed/Samples/Quick as the accumulate runs — render
// halves recompute sweep shapes and analytic columns from it.
func RenderPartial(id string, opt Options, p *Partial) (*stats.Table, error) {
	e, err := lookup(id)
	if err != nil {
		return nil, err
	}
	return e.render(opt, p, ""), nil
}
