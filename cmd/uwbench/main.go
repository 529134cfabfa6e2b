// Command uwbench regenerates the paper's tables and figures and prints
// them as text tables with the paper's reported shape alongside.
//
// Usage:
//
//	uwbench [-experiment all|fig06a|fig06b|...|headline] [-samples N] [-seed S] [-quick] [-workers W]
//	        [-progress] [-out bench.json] [-baseline BENCH_baseline.json]
//	        [-shard i/n] [-merge a.json,b.json,...] [-resume] [-checkpoint file] [-checkpoint-every N]
//
// Monte-Carlo trials fan out across -workers goroutines (default
// GOMAXPROCS) on the internal/engine trial runner; per-trial seeding makes
// the output byte-identical for every worker count. Trial results stream
// into online aggregators (internal/stats) as they complete, so result
// memory stays bounded at any -samples value; -progress taps the same
// stream for a live trials/sec + running-median line on stderr.
//
// Distributed sweeps: -shard i/n runs only the i-th contiguous slice of
// every experiment's trial sequence and writes the mergeable partial state
// to -out instead of tables; -merge folds the n shard files back together
// and renders the final tables, byte-identical to a single-process run at
// any shard and worker count. Long runs checkpoint their partial state
// periodically (atomic tmp+fsync+rename snapshots); -resume picks up after
// a preemption from the last snapshot.
//
// -out writes a structured JSON record of every table plus wall-clock
// timings (the CI benchmark artifact); -baseline compares those timings
// against a previous -out file and exits non-zero on >25% regressions.
//
// Experiment IDs match the figure/table numbering of the paper;
// -experiment list prints them. They come from the one ordered registry
// in internal/experiments, and every id runs the same accumulate → render
// path (see README.md).
package main

import (
	"encoding/base64"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"uwpos/internal/experiments"
	"uwpos/internal/stats"
	"uwpos/internal/wire"
)

// registered returns the set of registered experiment ids.
func registered() map[string]bool {
	ids := make(map[string]bool)
	for _, e := range experiments.Experiments() {
		ids[e.ID] = true
	}
	return ids
}

// parseExperimentIDs expands an -experiment value into experiment ids.
// Empty entries ("a,,b", trailing commas) are skipped; duplicates are an
// error — a duplicated id in a sweep invocation is almost always a typo
// for a different experiment, and running it twice would double-count its
// timings in -out.
func parseExperimentIDs(spec string) ([]string, error) {
	if spec == "all" {
		var ids []string
		for _, e := range experiments.Experiments() {
			if !e.OptIn {
				ids = append(ids, e.ID)
			}
		}
		return ids, nil
	}
	seen := make(map[string]bool)
	var ids []string
	for _, raw := range strings.Split(spec, ",") {
		id := strings.TrimSpace(raw)
		if id == "" {
			continue
		}
		if seen[id] {
			return nil, fmt.Errorf("experiment %q listed more than once in -experiment", id)
		}
		seen[id] = true
		ids = append(ids, id)
	}
	if len(ids) == 0 {
		return nil, fmt.Errorf("-experiment %q names no experiments", spec)
	}
	return ids, nil
}

// parseShard parses "-shard i/n".
func parseShard(s string) (experiments.ShardSpec, error) {
	var spec experiments.ShardSpec
	idx := strings.IndexByte(s, '/')
	if idx < 0 {
		return spec, fmt.Errorf("-shard %q: want i/n (e.g. 2/4)", s)
	}
	i, err := strconv.Atoi(s[:idx])
	if err != nil {
		return spec, fmt.Errorf("-shard %q: bad index: %v", s, err)
	}
	n, err := strconv.Atoi(s[idx+1:])
	if err != nil {
		return spec, fmt.Errorf("-shard %q: bad count: %v", s, err)
	}
	if n < 1 {
		return spec, fmt.Errorf("-shard %q: shard count must be >= 1", s)
	}
	spec = experiments.ShardSpec{Index: i, Count: n}
	if err := spec.Validate(); err != nil {
		return spec, fmt.Errorf("-shard %q: %v", s, err)
	}
	return spec, nil
}

// progressMeter renders the live stderr line from Options.Progress
// callbacks: streamed result count, results/sec and the running median of
// the current experiment's headline scalar (a fixed-memory sketch, so the
// line stays O(1) however many trials stream past).
type progressMeter struct {
	out       io.Writer
	id        string
	start     time.Time
	count     int64
	sk        *stats.Sketch
	lastPrint time.Time
	lineLen   int // width of the in-place line on screen (0 = clean)
}

func (p *progressMeter) reset(id string) {
	p.id = id
	p.start = time.Now()
	p.count = 0
	p.sk = stats.NewSketch()
	p.lastPrint = time.Time{} // new experiment: print immediately, not after a stale throttle
}

func (p *progressMeter) observe(v float64) {
	p.count++
	p.sk.Add(v)
	if time.Since(p.lastPrint) < 200*time.Millisecond {
		return
	}
	p.lastPrint = time.Now()
	rate := float64(p.count) / time.Since(p.start).Seconds()
	line := fmt.Sprintf("%s: %d results  %.1f/s  running median %.3f",
		p.id, p.count, rate, p.sk.Quantile(50))
	// Pad to the previous line's width so a shrinking line leaves no tail.
	pad := p.lineLen - len(line)
	if pad < 0 {
		pad = 0
	}
	fmt.Fprintf(p.out, "\r%s%s", line, strings.Repeat(" ", pad))
	p.lineLen = len(line)
}

// clear wipes the in-place line so the finished table prints clean.
func (p *progressMeter) clear() {
	if p.lineLen > 0 {
		fmt.Fprintf(p.out, "\r%s\r", strings.Repeat(" ", p.lineLen))
		p.lineLen = 0
	}
}

// benchTable is one experiment's record in the -out JSON file.
type benchTable struct {
	ID      string     `json:"id"`
	Title   string     `json:"title"`
	Paper   string     `json:"paper,omitempty"`
	Header  []string   `json:"header"`
	Rows    [][]string `json:"rows"`
	Notes   string     `json:"notes,omitempty"`
	Seconds float64    `json:"seconds"`
	Results int64      `json:"results,omitempty"`
}

// benchFile is the -out / -baseline schema.
type benchFile struct {
	Schema      int          `json:"schema"`
	Seed        int64        `json:"seed"`
	Samples     int          `json:"samples"`
	Quick       bool         `json:"quick"`
	Workers     int          `json:"workers"`
	Experiments []benchTable `json:"experiments"`
}

// shardEntry is one experiment's mergeable accumulator state, as carried
// by shard and checkpoint files (base64 of the experiments.Partial codec).
type shardEntry struct {
	ID      string  `json:"id"`
	Seconds float64 `json:"seconds"`
	Partial string  `json:"partial"`
}

// shardFile is what a -shard run writes to -out and what -merge reads.
// Workers is deliberately absent: shard results are byte-identical at any
// worker count, so shards of one sweep may use different worker counts.
type shardFile struct {
	Schema      int                   `json:"schema"`
	Seed        int64                 `json:"seed"`
	Samples     int                   `json:"samples"`
	Quick       bool                  `json:"quick"`
	Shard       experiments.ShardSpec `json:"shard"`
	Experiments []shardEntry          `json:"experiments"`
}

// checkpointFile is the periodic -checkpoint snapshot: everything a
// preempted run needs to continue. Completed carries already-printed
// tables (plain runs), Partials carries finished shard state (shard
// runs), Current the in-progress experiment's accumulator.
type checkpointFile struct {
	Schema    int                   `json:"schema"`
	Seed      int64                 `json:"seed"`
	Samples   int                   `json:"samples"`
	Quick     bool                  `json:"quick"`
	Shard     experiments.ShardSpec `json:"shard"`
	Completed []benchTable          `json:"completed,omitempty"`
	Partials  []shardEntry          `json:"partials,omitempty"`
	Current   *shardEntry           `json:"current,omitempty"`
}

func encodePartial(id string, p *experiments.Partial, secs float64) (shardEntry, error) {
	blob, err := p.MarshalBinary()
	if err != nil {
		return shardEntry{}, fmt.Errorf("%s: encode partial: %w", id, err)
	}
	return shardEntry{ID: id, Seconds: secs, Partial: base64.StdEncoding.EncodeToString(blob)}, nil
}

func decodePartial(e shardEntry) (*experiments.Partial, error) {
	blob, err := base64.StdEncoding.DecodeString(e.Partial)
	if err != nil {
		return nil, fmt.Errorf("%s: decode partial: %w", e.ID, err)
	}
	p := experiments.NewPartial()
	if err := p.UnmarshalBinary(blob); err != nil {
		return nil, fmt.Errorf("%s: %w", e.ID, err)
	}
	return p, nil
}

func tableOf(bt benchTable) *stats.Table {
	return &stats.Table{ID: bt.ID, Title: bt.Title, Paper: bt.Paper, Header: bt.Header, Rows: bt.Rows, Notes: bt.Notes}
}

// Baseline-comparison gates. A run fails only when an experiment is >25%
// slower than the baseline predicts AND at least a quarter second slower,
// so sub-second noise on shared CI runners does not flap the gate. The
// prediction is machine-speed normalized: the baseline was recorded on
// whatever box last regenerated it, so each experiment's expected time is
// base × (median cur/base ratio across experiments with ≥50 ms baselines).
// A uniformly slower runner shifts every ratio equally and trips nothing;
// a single experiment regressing stands out from the median and fails.
const (
	regressionFactor   = 1.25
	regressionFloorSec = 0.25
	calibrationFloor   = 0.05 // baselines below this are too noisy to calibrate on
)

// speedRatio estimates the current machine's speed relative to the
// baseline machine as the median per-experiment cur/base timing ratio.
// Falls back to 1 when nothing is measurable.
func speedRatio(cur benchFile, baseByID map[string]benchTable) float64 {
	var ratios []float64
	for _, e := range cur.Experiments {
		if b, found := baseByID[e.ID]; found && b.Seconds >= calibrationFloor && e.Seconds > 0 {
			ratios = append(ratios, e.Seconds/b.Seconds)
		}
	}
	if len(ratios) == 0 {
		return 1
	}
	sort.Float64s(ratios)
	return ratios[len(ratios)/2]
}

// compareBaseline reports timing regressions of cur vs a previous -out
// file. It returns false when any experiment regressed, or when an
// experiment present in the baseline was not run at all (a silently
// shrunken gate is itself a failure).
func compareBaseline(w io.Writer, cur benchFile, baselinePath string) (bool, error) {
	raw, err := os.ReadFile(baselinePath)
	if err != nil {
		return false, err
	}
	var base benchFile
	if err := json.Unmarshal(raw, &base); err != nil {
		return false, fmt.Errorf("parse %s: %w", baselinePath, err)
	}
	// Timings are only comparable for the same workload: -quick and
	// -samples change trial counts non-uniformly per experiment, -seed
	// changes scenario draws, -workers changes parallel wall time. A
	// mismatch means the baseline needs regenerating, not a comparison.
	if cur.Quick != base.Quick || cur.Samples != base.Samples ||
		cur.Seed != base.Seed || cur.Workers != base.Workers {
		return false, fmt.Errorf(
			"baseline %s was recorded with quick=%v samples=%d seed=%d workers=%d; this run used quick=%v samples=%d seed=%d workers=%d — regenerate the baseline with matching flags",
			baselinePath, base.Quick, base.Samples, base.Seed, base.Workers,
			cur.Quick, cur.Samples, cur.Seed, cur.Workers)
	}
	baseByID := make(map[string]benchTable, len(base.Experiments))
	for _, e := range base.Experiments {
		baseByID[e.ID] = e
	}
	scale := speedRatio(cur, baseByID)
	ok := true
	fmt.Fprintf(w, "== benchmark comparison vs %s (machine speed ratio %.2fx) ==\n", baselinePath, scale)
	fmt.Fprintf(w, "%-22s %10s %12s %10s %8s\n", "experiment", "base (s)", "expected (s)", "now (s)", "delta")
	covered := make(map[string]bool, len(cur.Experiments))
	for _, e := range cur.Experiments {
		covered[e.ID] = true
		b, found := baseByID[e.ID]
		if !found || b.Seconds <= 0 {
			fmt.Fprintf(w, "%-22s %10s %12s %10.2f %8s\n", e.ID, "-", "-", e.Seconds, "new")
			continue
		}
		expected := b.Seconds * scale
		delta := (e.Seconds - expected) / expected * 100
		mark := ""
		if e.Seconds > expected*regressionFactor && e.Seconds-expected > regressionFloorSec {
			mark = "  REGRESSION"
			ok = false
		}
		fmt.Fprintf(w, "%-22s %10.2f %12.2f %10.2f %+7.1f%%%s\n", e.ID, b.Seconds, expected, e.Seconds, delta, mark)
	}
	for _, b := range base.Experiments {
		if !covered[b.ID] {
			fmt.Fprintf(w, "%-22s %10.2f %12s %10s %8s  MISSING FROM RUN\n", b.ID, b.Seconds, "-", "-", "")
			ok = false
		}
	}
	return ok, nil
}

// runMerge folds shard files back into final tables (and optionally a
// benchFile at outPath). Shards must agree on workload flags and form a
// complete 0..n-1 index set; partials fold in shard-index order, which is
// what makes the merged tables byte-identical to a single-process run.
func runMerge(paths []string, outPath string, workers int, stdout, stderr io.Writer) int {
	fail := func(format string, args ...any) int {
		fmt.Fprintf(stderr, format+"\n", args...)
		return 1
	}
	if len(paths) == 0 {
		return fail("-merge: no shard files given")
	}
	shards := make([]shardFile, 0, len(paths))
	for _, path := range paths {
		raw, err := os.ReadFile(path)
		if err != nil {
			return fail("-merge: %v", err)
		}
		var sf shardFile
		if err := json.Unmarshal(raw, &sf); err != nil {
			return fail("-merge: parse %s: %v", path, err)
		}
		if sf.Schema != 1 {
			return fail("-merge: %s: unsupported shard schema %d", path, sf.Schema)
		}
		shards = append(shards, sf)
	}
	first := shards[0]
	count := first.Shard.Count
	if count < 1 {
		count = 1
	}
	if len(shards) != count {
		return fail("-merge: shard count is %d but %d files were given", count, len(shards))
	}
	sort.SliceStable(shards, func(i, j int) bool { return shards[i].Shard.Index < shards[j].Shard.Index })
	for i, sf := range shards {
		if sf.Seed != first.Seed || sf.Samples != first.Samples || sf.Quick != first.Quick || sf.Shard.Count != first.Shard.Count {
			return fail("-merge: shard %d was run with seed=%d samples=%d quick=%v count=%d; shard 0 used seed=%d samples=%d quick=%v count=%d — shards of one sweep must share workload flags",
				sf.Shard.Index, sf.Seed, sf.Samples, sf.Quick, sf.Shard.Count,
				first.Seed, first.Samples, first.Quick, first.Shard.Count)
		}
		if sf.Shard.Index != i {
			return fail("-merge: need each shard index 0..%d exactly once, found index %d in position %d", count-1, sf.Shard.Index, i)
		}
		if len(sf.Experiments) != len(first.Experiments) {
			return fail("-merge: shard %d ran %d experiments, shard 0 ran %d", i, len(sf.Experiments), len(first.Experiments))
		}
		for ei := range sf.Experiments {
			if sf.Experiments[ei].ID != first.Experiments[ei].ID {
				return fail("-merge: shard %d experiment %d is %q, shard 0 has %q", i, ei, sf.Experiments[ei].ID, first.Experiments[ei].ID)
			}
		}
	}
	opt := experiments.Options{Seed: first.Seed, Samples: first.Samples, Quick: first.Quick, Workers: workers}
	record := benchFile{Schema: 1, Seed: first.Seed, Samples: first.Samples, Quick: first.Quick, Workers: workers}
	for ei, e := range first.Experiments {
		if !experiments.CanShard(e.ID) {
			return fail("-merge: experiment %q cannot come from a shard run (unknown or live-pipeline)", e.ID)
		}
		merged := experiments.NewPartial()
		var secs float64
		for si := range shards {
			entry := shards[si].Experiments[ei]
			p, err := decodePartial(entry)
			if err != nil {
				return fail("-merge: shard %d: %v", si, err)
			}
			merged.Merge(p)
			secs += entry.Seconds
		}
		table, err := experiments.RenderPartial(e.ID, opt, merged)
		if err != nil {
			return fail("-merge: %v", err)
		}
		fmt.Fprint(stdout, table.Format())
		fmt.Fprintf(stdout, "(%s in %.1fs)\n\n", e.ID, secs)
		record.Experiments = append(record.Experiments, benchTable{
			ID: table.ID, Title: table.Title, Paper: table.Paper,
			Header: table.Header, Rows: table.Rows, Notes: table.Notes,
			Seconds: secs,
		})
	}
	if outPath != "" {
		blob, err := json.MarshalIndent(record, "", "  ")
		if err != nil {
			return fail("%v", err)
		}
		if err := wire.WriteFile(outPath, append(blob, '\n')); err != nil {
			return fail("%v", err)
		}
	}
	return 0
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole CLI behind an exit code, so deferred cleanup (CPU
// profile flush, checkpoint removal) runs on every path — main's os.Exit
// would skip it.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("uwbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp       = fs.String("experiment", "all", "experiment id (or 'all', 'list', comma-separated ids)")
		samples   = fs.Int("samples", 0, "override per-point sample count (0 = defaults)")
		seed      = fs.Int64("seed", 1, "random seed")
		quick     = fs.Bool("quick", false, "divide heavy sample counts by 4")
		workers   = fs.Int("workers", 0, "concurrent trial workers (0 = GOMAXPROCS); results are identical for any value")
		progress  = fs.Bool("progress", false, "live stderr line: streamed results, results/sec, running median")
		out       = fs.String("out", "", "write tables + timings as JSON to this file (CI artifact); with -shard, the mergeable shard blob")
		baseline  = fs.String("baseline", "", "compare timings against a previous -out file; exit 1 on >25% regression")
		profile   = fs.String("cpuprofile", "", "write a pprof CPU profile of the experiment run to this file")
		svcAddr   = fs.String("service-addr", "", "live uwposd address for -experiment service (empty = in-process server)")
		shardFlag = fs.String("shard", "", "run slice i/n of every experiment's trials and write mergeable state to -out (e.g. -shard 2/4)")
		mergeFlag = fs.String("merge", "", "comma-separated shard files to fold into final tables (no trials are run)")
		resume    = fs.Bool("resume", false, "continue from the checkpoint file if present")
		ckptPath  = fs.String("checkpoint", "", "checkpoint file for crash recovery (default: <out>.ckpt when -out is set)")
		ckptEvery = fs.Int("checkpoint-every", 256, "checkpoint after every N delivered trials (0 disables)")
		dieAfter  = fs.Int("die-after", 0, "test hook: simulate preemption by exiting with code 7 after N delivered trials")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *profile != "" {
		f, err := os.Create(*profile)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			fmt.Fprintln(stderr, err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}

	if *mergeFlag != "" {
		if *shardFlag != "" || *resume {
			fmt.Fprintln(stderr, "-merge runs no trials; it cannot combine with -shard or -resume")
			return 2
		}
		var paths []string
		for _, raw := range strings.Split(*mergeFlag, ",") {
			if p := strings.TrimSpace(raw); p != "" {
				paths = append(paths, p)
			}
		}
		// Duplicate files are caught downstream as duplicate shard indices.
		return runMerge(paths, *out, *workers, stdout, stderr)
	}

	reg := registered()
	if *exp == "list" {
		ids := make([]string, 0, len(reg))
		for id := range reg {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		fmt.Fprintln(stdout, strings.Join(ids, "\n"))
		return 0
	}

	ids, err := parseExperimentIDs(*exp)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	for _, id := range ids {
		if !reg[id] {
			fmt.Fprintf(stderr, "unknown experiment %q (try -experiment list)\n", id)
			return 2
		}
	}

	var spec experiments.ShardSpec
	shardMode := *shardFlag != ""
	if shardMode {
		spec, err = parseShard(*shardFlag)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		if *out == "" {
			fmt.Fprintln(stderr, "-shard writes mergeable state, not tables: it requires -out")
			return 2
		}
		if *baseline != "" {
			fmt.Fprintln(stderr, "-baseline compares full-run timings; it cannot combine with -shard")
			return 2
		}
		if *exp == "all" {
			kept := ids[:0]
			for _, id := range ids {
				if experiments.CanShard(id) {
					kept = append(kept, id)
				} else {
					fmt.Fprintf(stderr, "note: %s is not shardable (live-pipeline experiment); skipping in shard mode\n", id)
				}
			}
			ids = kept
		} else {
			for _, id := range ids {
				if !experiments.CanShard(id) {
					fmt.Fprintf(stderr, "experiment %q cannot run sharded (live-pipeline experiment)\n", id)
					return 2
				}
			}
		}
	}

	ckPath := *ckptPath
	if ckPath == "" && *out != "" {
		ckPath = *out + ".ckpt"
	}
	ckActive := ckPath != "" && *ckptEvery > 0

	var ck checkpointFile
	resumed := false
	if *resume {
		if ckPath == "" {
			fmt.Fprintln(stderr, "-resume needs a checkpoint location: pass -checkpoint or -out")
			return 2
		}
		raw, err := os.ReadFile(ckPath)
		switch {
		case err == nil:
			if err := json.Unmarshal(raw, &ck); err != nil {
				fmt.Fprintf(stderr, "resume: parse %s: %v\n", ckPath, err)
				return 1
			}
			if ck.Schema != 1 {
				fmt.Fprintf(stderr, "resume: %s has unsupported schema %d\n", ckPath, ck.Schema)
				return 1
			}
			if ck.Seed != *seed || ck.Samples != *samples || ck.Quick != *quick || ck.Shard != spec {
				fmt.Fprintf(stderr, "resume: %s was written by a run with seed=%d samples=%d quick=%v shard=%d/%d; this run's flags differ — delete it or rerun with matching flags\n",
					ckPath, ck.Seed, ck.Samples, ck.Quick, ck.Shard.Index, ck.Shard.Count)
				return 2
			}
			resumed = true
		case os.IsNotExist(err):
			// Nothing to resume: run from scratch (idempotent relaunch).
		default:
			fmt.Fprintf(stderr, "resume: %v\n", err)
			return 1
		}
	}

	opt := experiments.Options{Seed: *seed, Samples: *samples, Quick: *quick, Workers: *workers, ServiceAddr: *svcAddr}
	var meter *progressMeter
	if *progress {
		meter = &progressMeter{out: stderr}
		opt.Progress = meter.observe
	}
	record := benchFile{Schema: 1, Seed: *seed, Samples: *samples, Quick: *quick, Workers: *workers}

	completed := append([]benchTable(nil), ck.Completed...)
	partials := append([]shardEntry(nil), ck.Partials...)
	doneIDs := make(map[string]bool)
	// Replay the checkpoint's finished experiments: tables print exactly
	// as the first run printed them, shard entries carry over as-is.
	for _, bt := range completed {
		doneIDs[bt.ID] = true
		fmt.Fprint(stdout, tableOf(bt).Format())
		fmt.Fprintf(stdout, "(%s in %.1fs)\n\n", bt.ID, bt.Seconds)
		record.Experiments = append(record.Experiments, bt)
	}
	for _, e := range partials {
		doneIDs[e.ID] = true
	}

	writeCkpt := func(current *shardEntry) {
		snap := checkpointFile{
			Schema: 1, Seed: *seed, Samples: *samples, Quick: *quick, Shard: spec,
			Completed: completed, Partials: partials, Current: current,
		}
		blob, err := json.Marshal(snap)
		if err == nil {
			err = wire.WriteFile(ckPath, blob)
		}
		if err != nil {
			fmt.Fprintf(stderr, "checkpoint %s: %v\n", ckPath, err)
		}
	}

	delivered := 0
	runOne := func(id string) int {
		p := experiments.NewPartial()
		var preSecs float64
		if resumed && ck.Current != nil && ck.Current.ID == id {
			restored, err := decodePartial(*ck.Current)
			if err != nil {
				fmt.Fprintf(stderr, "resume: %v\n", err)
				return 1
			}
			p = restored
			preSecs = ck.Current.Seconds
		}
		if meter != nil {
			meter.reset(id)
		}
		o := opt
		o.Shard = spec
		start := time.Now()
		if ckActive || *dieAfter > 0 {
			ticks := 0
			o.Checkpoint = func() {
				ticks++
				delivered++
				if ckActive && ticks%*ckptEvery == 0 {
					entry, err := encodePartial(id, p, preSecs+time.Since(start).Seconds())
					if err != nil {
						fmt.Fprintln(stderr, err)
						return
					}
					writeCkpt(&entry)
				}
				if *dieAfter > 0 && delivered >= *dieAfter {
					// Simulated preemption: die hard, exactly like a kill
					// -9 — only periodic snapshots survive, which is what
					// -resume must recover from.
					os.Exit(7)
				}
			}
		}
		if err := experiments.Accumulate(id, o, p); err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		var table *stats.Table
		if !shardMode {
			var err error
			if table, err = experiments.RenderPartial(id, opt, p); err != nil {
				fmt.Fprintln(stderr, err)
				return 2
			}
		}
		secs := preSecs + time.Since(start).Seconds()
		var results int64
		if meter != nil {
			results = meter.count
			meter.clear()
		}
		if shardMode {
			entry, err := encodePartial(id, p, secs)
			if err != nil {
				fmt.Fprintln(stderr, err)
				return 1
			}
			partials = append(partials, entry)
			fmt.Fprintf(stderr, "%s: shard %d/%d accumulated in %.1fs\n", id, spec.Index, spec.Count, secs)
		} else {
			fmt.Fprint(stdout, table.Format())
			fmt.Fprintf(stdout, "(%s in %.1fs)\n\n", id, secs)
			bt := benchTable{
				ID: table.ID, Title: table.Title, Paper: table.Paper,
				Header: table.Header, Rows: table.Rows, Notes: table.Notes,
				Seconds: secs, Results: results,
			}
			completed = append(completed, bt)
			record.Experiments = append(record.Experiments, bt)
		}
		if ckActive {
			writeCkpt(nil)
		}
		return 0
	}

	for _, id := range ids {
		if doneIDs[id] {
			continue
		}
		if code := runOne(id); code != 0 {
			return code
		}
	}

	if *out != "" {
		var blob []byte
		var err error
		if shardMode {
			blob, err = json.MarshalIndent(shardFile{
				Schema: 1, Seed: *seed, Samples: *samples, Quick: *quick,
				Shard: spec, Experiments: partials,
			}, "", "  ")
		} else {
			blob, err = json.MarshalIndent(record, "", "  ")
		}
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		if err := wire.WriteFile(*out, append(blob, '\n')); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}
	if ckActive {
		os.Remove(ckPath) // run finished; a later -resume should start fresh
	}
	if *baseline != "" {
		ok, err := compareBaseline(stdout, record, *baseline)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		if !ok {
			fmt.Fprintln(stderr, "benchmark gate failed: regression vs baseline (>25% and >0.25s over speed-normalized expectation) or baseline experiment missing from run")
			return 1
		}
	}
	return 0
}
