// Command perfbench times uwpos on four seeded workloads from one
// process: the paper's five-phone dock round (sim), the outlier-search
// localization solver (core), the uwposd service over loopback HTTP
// (service) and the phone's real-time receive path (ranging/ingest).
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// It prints a human-readable report and, as its last line, one JSON
// object with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). It exits non-zero when an output check fails. See
// README.md for the workloads, metrics and predictions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"
)

// setupReps is how many processes set the workload up in a run: the run
// itself and setupReps-1 fresh copies of it started with --setup-child.
// The program builds its shared tables, matchers and transform plans once
// per process, so only a fresh process times them; setup_s is the median
// of the three, so one slow set-up does not move it.
const setupReps = 3

func main() {
	entry := time.Now()
	os.Exit(run(entry, os.Args[1:], os.Stdout, os.Stderr))
}

// workload is one named, seeded benchmark workload.
type workload struct {
	name string
	why  string
	// pinned workloads run their ops on one goroutine; a phase runs it on a
	// thread pinned to one CPU and measures the host on that CPU alone.
	pinned bool
	// setup builds an instance from the seed: inputs, program state and a
	// fixed warm-up. It runs once per process.
	setup func(cfg setupConfig) (instance, error)
}

// setupConfig is what a set-up may depend on.
type setupConfig struct {
	seed   int64
	outDir string // the run's artifact directory, inside the checkout
	smoke  bool   // tests: smaller inputs, set up in this process only
}

// instance is a set-up workload, ready to time.
type instance interface {
	// run executes ops until the deadline has passed and the checked pass
	// (the fixed prefix of the op list whose outputs are checked) is done.
	run(p phase) *recorder
	// verify checks the checked pass's outputs and digests them.
	verify() verdict
	// layers reports the workload's per-layer metrics after a traced phase.
	layers(tr *tracer, rec *recorder) []metric
	close()
}

// phase is one timed pass over the op list.
type phase struct {
	deadline time.Time
	tr       *tracer // nil with tracing off
	first    bool    // the run's first phase: keep checked-pass outputs
}

// recorder holds one phase's per-op latencies, read with one clock pair
// per op.
type recorder struct {
	ops       []time.Duration // the workload's op
	reads     []time.Duration // serve-mixed: GET track and GET statz
	attempted int             // every timed request or call
	failed    int
	problems  []string // failures and check violations seen while timing
}

func (r *recorder) fail(format string, args ...any) {
	r.failed++
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func (r *recorder) merge(o *recorder) {
	r.ops = append(r.ops, o.ops...)
	r.reads = append(r.reads, o.reads...)
	r.attempted += o.attempted
	r.failed += o.failed
	r.problems = append(r.problems, o.problems...)
}

// verdict is the outcome of a workload's output checks.
type verdict struct {
	violations []string
	digest     string   // hash of the checked pass's outputs; not a gate
	quality    []metric // e.g. loc_err_p50_m, deterministic per seed
}

// metric is one named figure with its unit and an optional note.
type metric struct {
	name  string
	value float64
	unit  string
	note  string
}

// phaseResult is what timing one phase measured.
type phaseResult struct {
	rec        *recorder
	wall       time.Duration
	allocMB    float64 // heap bytes allocated during the phase, in MB
	slowdown   float64 // host slowdown against the reference kernel
	calSamples int
}

func (p phaseResult) opsPerSec() float64 {
	return float64(len(p.rec.ops)) / p.wall.Seconds()
}

// scaledOpsPerSec is opsPerSec at the reference host speed.
func (p phaseResult) scaledOpsPerSec() float64 { return p.opsPerSec() * p.slowdown }

var workloads = []workload{dockWorkload, localizeWorkload, serveWorkload, receiverWorkload}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func run(entry time.Time, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 20, "length of the timed phase")
	trace := fs.Int("trace", 0, "1: add a traced phase and print per-layer metrics")
	outDir := fs.String("out", ".bench_out", "directory for spans, profiles and service state")
	child := fs.Bool("setup-child", false, "set the workload up once, print the set-up time as JSON and exit; a run starts two such processes for setup_s")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		names := make([]string, len(workloads))
		for i, w := range workloads {
			names[i] = w.name
		}
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n", strings.Join(names, ", "))
		return 2
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	cfg := setupConfig{seed: *seed, outDir: *outDir}
	if *child {
		inst, st, err := setUp(w, cfg, entry)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		inst.close()
		b, _ := json.Marshal(st)
		fmt.Fprintln(stdout, string(b))
		return 0
	}
	res, err := execute(w, cfg, *seconds, *trace == 1, entry)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	res.print(stdout)
	if !res.correct() {
		return 1
	}
	return 0
}

// result is everything a run reports.
type result struct {
	w        workload
	seed     int64
	seconds  float64
	setups   []setupTime // this process's first, then the fresh processes'
	timed    phaseResult
	verdict  verdict
	traced   *phaseResult
	layers   []metric
	shares   map[string]float64
	profiled time.Duration // CPU time in the profile behind shares
	gcFrac   float64
	overhead float64
	spans    string // where the spans were written
}

// setupTime is one process's set-up: main() entry to the instance being
// ready to time, and the host slowdown meanwhile.
type setupTime struct {
	Raw      float64 `json:"raw_s"`
	Slowdown float64 `json:"slowdown"`
}

// scaled is the set-up time at the reference host speed.
func (s setupTime) scaled() float64 { return s.Raw / s.Slowdown }

// setUp sets the workload up, measuring the host meanwhile.
func setUp(w workload, cfg setupConfig, entry time.Time) (instance, setupTime, error) {
	cal := startCalibrator()
	inst, err := w.setup(cfg)
	raw := time.Since(entry)
	slowdown, _ := cal.finish(-1)
	if err != nil {
		return nil, setupTime{}, fmt.Errorf("%s set-up: %w", w.name, err)
	}
	return inst, setupTime{Raw: raw.Seconds(), Slowdown: slowdown}, nil
}

// setupChild sets the workload up in a fresh process, a copy of this
// program started with --setup-child, and returns the set-up time that
// process measured. The process's start and exit are not part of it.
func setupChild(w workload, cfg setupConfig) (setupTime, error) {
	exe, err := os.Executable()
	if err != nil {
		return setupTime{}, err
	}
	var stderr strings.Builder
	cmd := exec.Command(exe, "--setup-child", "--workload", w.name,
		"--seed", strconv.FormatInt(cfg.seed, 10), "--out", cfg.outDir)
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return setupTime{}, fmt.Errorf("set-up in a fresh process: %w: %s", err, stderr.String())
	}
	var st setupTime
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &st); err != nil || !(st.Raw > 0 && st.Slowdown > 0) {
		return setupTime{}, fmt.Errorf("set-up in a fresh process printed %q", out)
	}
	return st, nil
}

// execute sets the workload up, times it and, when traced, times it again
// with spans, a CPU profile and the workload's per-layer probes. The
// set-up is timed in this process and, unless smoke-sized, in
// setupReps-1 fresh ones started before the timed phase.
func execute(w workload, cfg setupConfig, seconds float64, traced bool, entry time.Time) (*result, error) {
	res := &result{w: w, seed: cfg.seed, seconds: seconds}
	inst, st, err := setUp(w, cfg, entry)
	if err != nil {
		return nil, err
	}
	defer inst.close()
	res.setups = append(res.setups, st)
	for k := 1; k < setupReps && !cfg.smoke; k++ {
		st, err := setupChild(w, cfg)
		if err != nil {
			return nil, err
		}
		res.setups = append(res.setups, st)
	}

	dur := time.Duration(seconds * float64(time.Second))
	res.timed = timePhase(inst, phase{first: true}, dur, w.pinned)
	res.verdict = inst.verify()
	if !traced {
		return res, nil
	}

	base := filepath.Join(cfg.outDir, fmt.Sprintf("%s-seed%d", w.name, cfg.seed))
	prof, err := os.Create(base + ".cpu.pprof")
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	gc0, used0 := cpuClasses()
	if err := pprof.StartCPUProfile(prof); err != nil {
		prof.Close()
		return nil, err
	}
	tp := timePhase(inst, phase{tr: tr}, dur, w.pinned)
	pprof.StopCPUProfile()
	gc1, used1 := cpuClasses()
	if err := prof.Close(); err != nil {
		return nil, err
	}
	res.traced = &tp
	res.gcFrac = (gc1 - gc0) / (used1 - used0)
	tracedRate := float64(len(tp.rec.ops)) / (tp.wall - tr.probeTime()).Seconds() * tp.slowdown
	res.overhead = tracedRate / res.timed.scaledOpsPerSec()
	if res.shares, res.profiled, err = profileShares(base + ".cpu.pprof"); err != nil {
		return nil, err
	}
	res.layers = inst.layers(tr, tp.rec)
	res.spans = base + ".spans.json"
	if err := tr.write(res.spans); err != nil {
		return nil, err
	}
	return res, nil
}

// timePhase runs one phase from a collected heap, reading the allocation
// counter only at its boundaries, and measures the host meanwhile: on the
// ops' CPU when they are pinned, else on every CPU.
func timePhase(inst instance, p phase, dur time.Duration, pinned bool) phaseResult {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc0 := ms.TotalAlloc
	cal := startCalibrator()
	cpu := -1
	t0 := time.Now()
	p.deadline = t0.Add(dur)
	var rec *recorder
	if pinned {
		var ok bool
		if rec, ok = onPinnedThread(cal.cpus[0], func() *recorder { return inst.run(p) }); ok {
			cpu = cal.cpus[0]
		}
	} else {
		rec = inst.run(p)
	}
	wall := time.Since(t0)
	slowdown, samples := cal.finish(cpu)
	runtime.ReadMemStats(&ms)
	return phaseResult{rec: rec, wall: wall, allocMB: float64(ms.TotalAlloc-alloc0) / 1e6,
		slowdown: slowdown, calSamples: samples}
}

func (r *result) correct() bool {
	return len(r.verdict.violations) == 0 && r.timed.rec.failed == 0 &&
		(r.traced == nil || r.traced.rec.failed == 0)
}

// endToEnd returns the metrics BENCHMARK.json gates, measured with
// tracing off. Every workload reports each of them.
func (r *result) endToEnd() []metric {
	ops := len(r.timed.rec.ops)
	scaled, raw := make([]float64, len(r.setups)), make([]float64, len(r.setups))
	for i, s := range r.setups {
		scaled[i], raw[i] = s.scaled(), s.Raw
	}
	return []metric{
		{name: "setup_s", value: median(scaled), unit: "s",
			note: fmt.Sprintf("median of %d cold set-ups at reference speed; raw %s s", len(r.setups), fmtList(raw, "%.3f"))},
		{name: "ops_per_s", value: r.timed.scaledOpsPerSec(), unit: "1/s",
			note: fmt.Sprintf("at reference speed; raw %.4g: %d ops in %.2f s", r.timed.opsPerSec(), ops, r.timed.wall.Seconds())},
		{name: "alloc_mb_per_op", value: r.timed.allocMB / float64(ops), unit: "MB",
			note: fmt.Sprintf("%.1f MB over %d ops", r.timed.allocMB, ops)},
	}
}

// perLayer returns the per-layer metrics BENCHMARK.json lists: flat CPU
// shares of the traced phase's profile, the collector's CPU share and the
// tracing overhead. Every workload reports each of them.
func (r *result) perLayer() []metric {
	out := make([]metric, 0, len(shareLayers)+2)
	for _, l := range shareLayers {
		out = append(out, metric{name: l + ".cpu_frac", value: r.shares[l], unit: "frac"})
	}
	return append(out,
		metric{name: "runtime.gc_cpu_frac", value: r.gcFrac, unit: "frac"},
		metric{name: "trace.overhead_frac", value: r.overhead, unit: "frac"})
}

// shareLayers are the layers whose CPU share the JSON result carries.
var shareLayers = []string{
	"channel", "sim", "ingest", "dsp", "ranging", "core", "graph", "mds",
	"matrix", "math", "stdlib", "runtime",
}

// latencyLines reports the median and the tail percentiles that have at
// least ten samples beyond them, stating the sample count.
func latencyLines(name string, ds []time.Duration, ps ...float64) []metric {
	ms := millis(ds)
	var out []metric
	for _, p := range ps {
		label := fmt.Sprintf("%s_p%g_ms", name, p)
		v, ok := percentile(ms, p)
		if !ok {
			out = append(out, metric{name: label, value: math.NaN(), unit: "ms",
				note: fmt.Sprintf("omitted: n=%d, needs >= %d", len(ms), samplesFor(p))})
			continue
		}
		out = append(out, metric{name: label, value: v, unit: "ms", note: fmt.Sprintf("n=%d", len(ms))})
	}
	return out
}

func (r *result) print(w io.Writer) {
	fmt.Fprintf(w, "workload %s  seed %d  seconds %g  GOMAXPROCS %d  NumCPU %d  %s\n",
		r.w.name, r.seed, r.seconds, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version())
	fmt.Fprintf(w, "  why: %s\n", r.w.why)
	slow := make([]float64, len(r.setups))
	for i, s := range r.setups {
		slow[i] = s.Slowdown
	}
	fmt.Fprintf(w, "  main() entry to set up: %.3f s in this process\n", r.setups[0].Raw)
	fmt.Fprintf(w, "  host slowdown against the reference kernel: %s in the set-ups, %.3f in the timed phase (%d samples)\n",
		fmtList(slow, "%.3f"), r.timed.slowdown, r.timed.calSamples)
	fmt.Fprintln(w, "end-to-end (tracing off):")
	lines := r.endToEnd()
	lines = append(lines, latencyLines("op", r.timed.rec.ops, 50, 90, 99)...)
	if len(r.timed.rec.reads) > 0 {
		lines = append(lines, latencyLines("read", r.timed.rec.reads, 50, 99)...)
	}
	lines = append(lines, r.verdict.quality...)
	printMetrics(w, lines)
	fmt.Fprintf(w, "  attempted %d  failed %d\n", r.timed.rec.attempted, r.timed.rec.failed)
	fmt.Fprintf(w, "  digest %s\n", r.verdict.digest)
	for _, v := range append(r.timed.rec.problems, r.verdict.violations...) {
		fmt.Fprintf(w, "  CHECK FAILED: %s\n", v)
	}

	out := struct {
		Correct   bool                       `json:"correct"`
		Attempted int                        `json:"attempted"`
		Failed    int                        `json:"failed"`
		Metrics   map[string]json.RawMessage `json:"metrics"`
	}{Correct: r.correct(), Attempted: r.timed.rec.attempted, Failed: r.timed.rec.failed}
	gated := r.endToEnd()
	if r.traced != nil {
		fmt.Fprintf(w, "per-layer (traced phase: %d ops in %.2f s; spans %s):\n",
			len(r.traced.rec.ops), r.traced.wall.Seconds(), r.spans)
		printMetrics(w, r.layers)
		fmt.Fprintf(w, "  CPU profile flat share by layer (%.2f s of samples):\n", r.profiled.Seconds())
		for _, l := range sortedShares(r.shares) {
			if r.shares[l] >= 0.005 {
				fmt.Fprintf(w, "    %-10s %.3f\n", l, r.shares[l])
			}
		}
		for _, v := range r.traced.rec.problems {
			fmt.Fprintf(w, "  CHECK FAILED (traced): %s\n", v)
		}
		gated = r.perLayer()
		printMetrics(w, gated[len(gated)-2:])
		out.Attempted, out.Failed = r.traced.rec.attempted, r.traced.rec.failed
	}
	out.Metrics = map[string]json.RawMessage{}
	for _, m := range gated {
		v := m.value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		b, _ := json.Marshal(struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		}{v, m.unit})
		out.Metrics[m.name] = b
	}
	b, _ := json.Marshal(out)
	fmt.Fprintln(w, string(b))
}

func printMetrics(w io.Writer, ms []metric) {
	for _, m := range ms {
		if math.IsNaN(m.value) {
			fmt.Fprintf(w, "  %-28s %12s %-5s %s\n", m.name, "-", m.unit, m.note)
			continue
		}
		fmt.Fprintf(w, "  %-28s %12.6g %-5s %s\n", m.name, m.value, m.unit, m.note)
	}
}

func fmtList(xs []float64, f string) string {
	s := make([]string, len(xs))
	for i, x := range xs {
		s[i] = fmt.Sprintf(f, x)
	}
	return strings.Join(s, " ")
}

// summary is a per-layer figure from span durations, in milliseconds.
func summary(name string, ds []time.Duration) metric {
	v, note := medianOrMean(millis(ds))
	return metric{name: name, value: v, unit: "ms", note: note}
}

// errQuality reports position errors against ground truth, in metres.
func errQuality(name string, errs []float64) metric {
	s := append([]float64(nil), errs...)
	sort.Float64s(s)
	v, note := medianOrMean(s)
	if strings.HasPrefix(note, "mean") {
		return metric{name: name + "_mean_m", value: v, unit: "m", note: note}
	}
	return metric{name: name + "_p50_m", value: v, unit: "m", note: note}
}

// medianOrMean returns the median of sorted when ten samples lie beyond
// it and the mean otherwise, with a note naming which and the count.
func medianOrMean(sorted []float64) (float64, string) {
	if len(sorted) == 0 {
		return math.NaN(), "no samples"
	}
	if v, ok := percentile(sorted, 50); ok {
		return v, fmt.Sprintf("p50, n=%d", len(sorted))
	}
	return sum(sorted) / float64(len(sorted)), fmt.Sprintf("mean, n=%d (a median needs %d)", len(sorted), samplesFor(50))
}
