// Benchmarks that regenerate every table and figure of the paper's
// evaluation. Each benchmark runs its experiment at reduced trial counts
// (the full-fidelity tables come from cmd/uwbench) through the same
// experiments.Accumulate → RenderPartial path uwbench takes, and reports
// the figure's headline statistic, read from the experiment's Partial
// sketches and counters (or its table), as a custom metric, so
// `go test -bench=.` doubles as a regression harness for the reproduced
// results.
package uwpos_test

import (
	"math"
	"runtime"
	"strconv"
	"testing"

	"uwpos/internal/experiments"
	"uwpos/internal/stats"
)

func benchOpt(b *testing.B, samples int) experiments.Options {
	b.Helper()
	return experiments.Options{Seed: 1, Samples: samples, Quick: true}
}

// quickTrials is the trial count of a benchOpt run at the given samples:
// Quick quarters any count above 8.
func quickTrials(samples int) float64 {
	if samples > 8 {
		samples /= 4
	}
	return float64(samples)
}

// runExperiment runs one experiment id b.N times, each a fresh
// accumulate-then-render, and returns the last run's Partial and table.
func runExperiment(b *testing.B, id string, opt experiments.Options) (*experiments.Partial, *stats.Table) {
	b.Helper()
	var p *experiments.Partial
	var table *stats.Table
	for i := 0; i < b.N; i++ {
		p = experiments.NewPartial()
		if err := experiments.Accumulate(id, opt, p); err != nil {
			b.Fatal(err)
		}
		var err error
		if table, err = experiments.RenderPartial(id, opt, p); err != nil {
			b.Fatal(err)
		}
	}
	return p, table
}

// values concatenates the observations of the named sketches.
func values(p *experiments.Partial, keys ...string) []float64 {
	var out []float64
	for _, key := range keys {
		out = append(out, p.Sketch(key).Values()...)
	}
	return out
}

// worstMedian is the largest non-NaN median over the named sketches.
func worstMedian(p *experiments.Partial, keys ...string) float64 {
	var worst float64
	for _, key := range keys {
		if m := stats.Median(values(p, key)); !math.IsNaN(m) && m > worst {
			worst = m
		}
	}
	return worst
}

// BenchmarkEngineSerial vs BenchmarkEngineParallel run the identical
// engine workload at 1 worker vs GOMAXPROCS workers, so the bench
// trajectory tracks the worker-pool speedup over time. The two produce
// byte-identical experiment results by the engine's seeding contract —
// only the wall clock may differ.
func benchEngineWorkload(b *testing.B, workers int) {
	b.Helper()
	p, _ := runExperiment(b, "fig06a", experiments.Options{Seed: 1, Samples: 60, Workers: workers})
	b.ReportMetric(p.Sketch("fig06a/4").Mean(), "m-2Derr@e1d=1.0")
}

func BenchmarkEngineSerial(b *testing.B)   { benchEngineWorkload(b, 1) }
func BenchmarkEngineParallel(b *testing.B) { benchEngineWorkload(b, runtime.GOMAXPROCS(0)) }

// The §2.1.5 sweeps keep one sketch per sweep point, keyed by its index.

func BenchmarkFig06a(b *testing.B) {
	p, _ := runExperiment(b, "fig06a", benchOpt(b, 40))
	b.ReportMetric(p.Sketch("fig06a/4").Mean(), "m-2Derr@e1d=1.0")
}

func BenchmarkFig06b(b *testing.B) {
	p, _ := runExperiment(b, "fig06b", benchOpt(b, 40))
	b.ReportMetric(p.Sketch("fig06b/0").Mean()-p.Sketch("fig06b/5").Mean(), "m-gainN3toN8")
}

func BenchmarkFig06c(b *testing.B) {
	p, _ := runExperiment(b, "fig06c", benchOpt(b, 40))
	b.ReportMetric(p.Sketch("fig06c/8").Mean(), "m-2Derr@20deg")
}

func BenchmarkFig06d(b *testing.B) {
	p, _ := runExperiment(b, "fig06d", benchOpt(b, 40))
	b.ReportMetric(p.Sketch("fig06d/3").Mean(), "m-2Derr@3drops")
}

func BenchmarkFig11a(b *testing.B) {
	p, _ := runExperiment(b, "fig11a", benchOpt(b, 4))
	b.ReportMetric(stats.Median(values(p, "fig11a/0")), "m-median@10m")
}

func BenchmarkFig11b(b *testing.B) {
	p, _ := runExperiment(b, "fig11b", benchOpt(b, 4))
	// fig11b/<separation>/0 holds the dual-mic errors at each separation.
	dual := values(p, "fig11b/0/0", "fig11b/1/0", "fig11b/2/0", "fig11b/3/0")
	b.ReportMetric(stats.Percentile(dual, 95), "m-95th-dualmic")
}

func BenchmarkFig12a(b *testing.B) {
	p, _ := runExperiment(b, "fig12a", benchOpt(b, 12))
	b.ReportMetric(float64(p.Counter("fig12a/oursFN"))/quickTrials(12), "FN-ratio-ours")
}

func BenchmarkFig12b(b *testing.B) {
	p, _ := runExperiment(b, "fig12b", benchOpt(b, 4))
	b.ReportMetric(stats.Mean(values(p, "fig12b/0/0")), "m-mean-ours@10m")
}

func BenchmarkFig13a(b *testing.B) {
	p, _ := runExperiment(b, "fig13a", benchOpt(b, 4))
	b.ReportMetric(stats.Median(values(p, "fig13a/1")), "m-median@5mdepth")
}

func BenchmarkFig13b(b *testing.B) {
	p, _ := runExperiment(b, "fig13b", benchOpt(b, 20))
	b.ReportMetric(stats.Mean(values(p, "fig13b/0")), "m-meanerr-watch")
}

func BenchmarkFig14a(b *testing.B) {
	p, _ := runExperiment(b, "fig14a", benchOpt(b, 4))
	b.ReportMetric(worstMedian(p, "fig14a/0", "fig14a/1", "fig14a/2", "fig14a/3"), "m-worst-orientation-median")
}

func BenchmarkFig14b(b *testing.B) {
	p, _ := runExperiment(b, "fig14b", benchOpt(b, 4))
	b.ReportMetric(worstMedian(p, "fig14b/0", "fig14b/1", "fig14b/2"), "m-worst-pair-median")
}

func BenchmarkFig15(b *testing.B) {
	p, _ := runExperiment(b, "fig15", benchOpt(b, 6))
	b.ReportMetric(stats.Median(values(p, "fig15/0/err", "fig15/1/err")), "m-median-moving")
}

func BenchmarkFig16(b *testing.B) {
	p, _ := runExperiment(b, "fig16", benchOpt(b, 100))
	// Each user's sketch ends with that user's grand mean, after the four
	// per-distance means.
	mean := (values(p, "fig16/u0")[4] + values(p, "fig16/u1")[4]) / 2
	b.ReportMetric(mean, "deg-mean-pointing")
}

func BenchmarkFig18(b *testing.B) {
	p, _ := runExperiment(b, "fig18", benchOpt(b, 2))
	b.ReportMetric(stats.Median(values(p, "fig18/dock/all")), "m-median-dock")
}

func BenchmarkFig19a(b *testing.B) {
	p, _ := runExperiment(b, "fig19a", benchOpt(b, 2))
	b.ReportMetric(stats.Percentile(values(p, "fig19a/with"), 95), "m-95th-withdetection")
}

func BenchmarkFig19b(b *testing.B) {
	p, _ := runExperiment(b, "fig19b", benchOpt(b, 2))
	b.ReportMetric(stats.Median(values(p, "fig19b/full")), "m-median-full")
}

func BenchmarkFig20(b *testing.B) {
	p, _ := runExperiment(b, "fig20", benchOpt(b, 2))
	all := values(p, "fig20/mover1/user1", "fig20/mover1/user2", "fig20/mover2/user1", "fig20/mover2/user2")
	b.ReportMetric(stats.Median(all), "m-median-mobility")
}

func BenchmarkFig22(b *testing.B) {
	p, _ := runExperiment(b, "fig22", benchOpt(b, 1))
	var snr []float64
	for _, v := range values(p, "fig22/0/snr") { // 10 m
		if !math.IsInf(v, 0) {
			snr = append(snr, v)
		}
	}
	b.ReportMetric(stats.Mean(snr), "dB-meanSNR@10m")
}

func BenchmarkProtocolRTT(b *testing.B) {
	_, table := runExperiment(b, "rtt", experiments.Options{Seed: 1, Samples: 1})
	// Rows run N = 3..7; column 1 is the analytic round time.
	n5, err := strconv.ParseFloat(table.Rows[2][1], 64)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(n5, "s-roundtime-N5")
}

func BenchmarkFlipping(b *testing.B) {
	p, _ := runExperiment(b, "flipping", benchOpt(b, 3))
	acc := func(ok, total string) float64 {
		return float64(p.Counter("flipping/"+ok)) / float64(p.Counter("flipping/"+total))
	}
	b.ReportMetric(acc("singleOK", "singleTotal"), "acc-single-voter")
	b.ReportMetric(acc("tripleOK", "tripleTotal"), "acc-three-voters")
}

func BenchmarkBattery(b *testing.B) {
	if _, table := runExperiment(b, "battery", experiments.Options{}); len(table.Rows) != 2 {
		b.Fatal("battery table malformed")
	}
}

func BenchmarkHeadline(b *testing.B) {
	runExperiment(b, "headline", benchOpt(b, 2))
}

func BenchmarkAblationBandWindow(b *testing.B) {
	p, _ := runExperiment(b, "ablation-bandwindow", benchOpt(b, 10))
	b.ReportMetric(stats.Median(values(p, "ablation-bandwindow/hann")), "m-median-hann")
	b.ReportMetric(stats.Median(values(p, "ablation-bandwindow/rectangular")), "m-median-rect")
}

func BenchmarkAblationPrefilter(b *testing.B) {
	p, _ := runExperiment(b, "ablation-prefilter", benchOpt(b, 16))
	on := float64(p.Counter("ablation-prefilter/on")) / quickTrials(16)
	off := float64(p.Counter("ablation-prefilter/off")) / quickTrials(16)
	b.ReportMetric(on-off, "detect-rate-gain")
}

func BenchmarkAblationRestarts(b *testing.B) {
	p, _ := runExperiment(b, "ablation-restarts", benchOpt(b, 40))
	gain := stats.Median(values(p, "ablation-restarts/restarts=2")) - stats.Median(values(p, "ablation-restarts/restarts=0"))
	b.ReportMetric(gain, "m-stress-gain")
}

func BenchmarkAblationReportBack(b *testing.B) {
	p, _ := runExperiment(b, "ablation-reportback", benchOpt(b, 2))
	cost := stats.Median(values(p, "ablation-reportback/full comm")) - stats.Median(values(p, "ablation-reportback/lossless"))
	b.ReportMetric(cost, "m-comm-cost")
}

// BenchmarkAblationOutlierGate compares Algorithm 1 with and without its
// unique-realizability gate: the gate prevents drops that would make the
// topology ambiguous.
func BenchmarkAblationOutlierGate(b *testing.B) {
	p, _ := runExperiment(b, "fig19a", benchOpt(b, 2))
	with := stats.Percentile(values(p, "fig19a/with"), 95)
	without := stats.Percentile(values(p, "fig19a/without"), 95)
	b.ReportMetric(without-with, "m-tail-reduction")
}
