// Benchmarks that regenerate every table and figure of the paper's
// evaluation. Each benchmark runs its experiment at reduced trial counts
// (the full-fidelity tables come from cmd/uwbench) and reports the
// figure's headline statistic as a custom metric, so `go test -bench=.`
// doubles as a regression harness for the reproduced results.
package uwpos_test

import (
	"math"
	"runtime"
	"testing"

	"uwpos/internal/experiments"
	"uwpos/internal/stats"
)

func benchOpt(b *testing.B, samples int) experiments.Options {
	b.Helper()
	return experiments.Options{Seed: 1, Samples: samples, Quick: true}
}

// BenchmarkEngineSerial vs BenchmarkEngineParallel run the identical
// engine workload at 1 worker vs GOMAXPROCS workers, so the bench
// trajectory tracks the worker-pool speedup over time. The two produce
// byte-identical experiment results by the engine's seeding contract —
// only the wall clock may differ.
func benchEngineWorkload(b *testing.B, workers int) {
	b.Helper()
	opt := experiments.Options{Seed: 1, Samples: 60, Workers: workers}
	var last []float64
	for i := 0; i < b.N; i++ {
		last, _ = experiments.Fig06a(opt)
	}
	b.ReportMetric(last[4], "m-2Derr@e1d=1.0")
}

func BenchmarkEngineSerial(b *testing.B)   { benchEngineWorkload(b, 1) }
func BenchmarkEngineParallel(b *testing.B) { benchEngineWorkload(b, runtime.GOMAXPROCS(0)) }

func BenchmarkFig06a(b *testing.B) {
	var last []float64
	for i := 0; i < b.N; i++ {
		last, _ = experiments.Fig06a(benchOpt(b, 40))
	}
	b.ReportMetric(last[4], "m-2Derr@e1d=1.0")
}

func BenchmarkFig06b(b *testing.B) {
	var last []float64
	for i := 0; i < b.N; i++ {
		last, _ = experiments.Fig06b(benchOpt(b, 40))
	}
	b.ReportMetric(last[0]-last[len(last)-1], "m-gainN3toN8")
}

func BenchmarkFig06c(b *testing.B) {
	var last []float64
	for i := 0; i < b.N; i++ {
		last, _ = experiments.Fig06c(benchOpt(b, 40))
	}
	b.ReportMetric(last[len(last)-1], "m-2Derr@20deg")
}

func BenchmarkFig06d(b *testing.B) {
	var last []float64
	for i := 0; i < b.N; i++ {
		last, _ = experiments.Fig06d(benchOpt(b, 40))
	}
	b.ReportMetric(last[3], "m-2Derr@3drops")
}

func BenchmarkFig11a(b *testing.B) {
	var out map[float64][]float64
	for i := 0; i < b.N; i++ {
		out, _ = experiments.Fig11a(benchOpt(b, 4))
	}
	b.ReportMetric(stats.Median(out[10]), "m-median@10m")
}

func BenchmarkFig11b(b *testing.B) {
	var out map[string][]float64
	for i := 0; i < b.N; i++ {
		out, _ = experiments.Fig11b(benchOpt(b, 4))
	}
	b.ReportMetric(stats.Percentile(out["ours-dual-mic"], 95), "m-95th-dualmic")
}

func BenchmarkFig12a(b *testing.B) {
	var ours experiments.DetectionCounts
	for i := 0; i < b.N; i++ {
		ours, _, _ = experiments.Fig12a(benchOpt(b, 12))
	}
	b.ReportMetric(ours.FNRatio, "FN-ratio-ours")
}

func BenchmarkFig12b(b *testing.B) {
	var out map[string]map[float64][]float64
	for i := 0; i < b.N; i++ {
		out, _ = experiments.Fig12b(benchOpt(b, 4))
	}
	b.ReportMetric(stats.Mean(out["ours-dual-mic"][10]), "m-mean-ours@10m")
}

func BenchmarkFig13a(b *testing.B) {
	var out map[float64][]float64
	for i := 0; i < b.N; i++ {
		out, _ = experiments.Fig13a(benchOpt(b, 4))
	}
	b.ReportMetric(stats.Median(out[5]), "m-median@5mdepth")
}

func BenchmarkFig13b(b *testing.B) {
	var out map[string][]float64
	for i := 0; i < b.N; i++ {
		out, _ = experiments.Fig13b(benchOpt(b, 20))
	}
	b.ReportMetric(stats.Mean(out["watch"]), "m-meanerr-watch")
}

func BenchmarkFig14a(b *testing.B) {
	var out map[string][]float64
	for i := 0; i < b.N; i++ {
		out, _ = experiments.Fig14a(benchOpt(b, 4))
	}
	var worst float64
	for _, es := range out {
		if m := stats.Median(es); !math.IsNaN(m) && m > worst {
			worst = m
		}
	}
	b.ReportMetric(worst, "m-worst-orientation-median")
}

func BenchmarkFig14b(b *testing.B) {
	var out map[string][]float64
	for i := 0; i < b.N; i++ {
		out, _ = experiments.Fig14b(benchOpt(b, 4))
	}
	var worst float64
	for _, es := range out {
		if m := stats.Median(es); !math.IsNaN(m) && m > worst {
			worst = m
		}
	}
	b.ReportMetric(worst, "m-worst-pair-median")
}

func BenchmarkFig15(b *testing.B) {
	var out map[float64][]experiments.Fig15Point
	for i := 0; i < b.N; i++ {
		out, _ = experiments.Fig15(benchOpt(b, 6))
	}
	var errs []float64
	for _, pts := range out {
		for _, p := range pts {
			errs = append(errs, math.Abs(p.EstimatedM-p.TrueM))
		}
	}
	b.ReportMetric(stats.Median(errs), "m-median-moving")
}

func BenchmarkFig16(b *testing.B) {
	var mean float64
	for i := 0; i < b.N; i++ {
		mean, _ = experiments.Fig16(benchOpt(b, 100))
	}
	b.ReportMetric(mean, "deg-mean-pointing")
}

func BenchmarkFig18(b *testing.B) {
	var out map[string][]float64
	for i := 0; i < b.N; i++ {
		out, _ = experiments.Fig18(benchOpt(b, 2))
	}
	b.ReportMetric(stats.Median(out["dock/all"]), "m-median-dock")
}

func BenchmarkFig19a(b *testing.B) {
	var out map[string][]float64
	for i := 0; i < b.N; i++ {
		out, _ = experiments.Fig19a(benchOpt(b, 2))
	}
	b.ReportMetric(stats.Percentile(out["with"], 95), "m-95th-withdetection")
}

func BenchmarkFig19b(b *testing.B) {
	var out map[string][]float64
	for i := 0; i < b.N; i++ {
		out, _ = experiments.Fig19b(benchOpt(b, 2))
	}
	b.ReportMetric(stats.Median(out["full"]), "m-median-full")
}

func BenchmarkFig20(b *testing.B) {
	var out map[string][]float64
	for i := 0; i < b.N; i++ {
		out, _ = experiments.Fig20(benchOpt(b, 2))
	}
	var all []float64
	for _, es := range out {
		all = append(all, es...)
	}
	b.ReportMetric(stats.Median(all), "m-median-mobility")
}

func BenchmarkFig22(b *testing.B) {
	var out map[float64][]float64
	for i := 0; i < b.N; i++ {
		pts, _ := experiments.Fig22(benchOpt(b, 1))
		out = map[float64][]float64{}
		for d, ps := range pts {
			for _, p := range ps {
				if !math.IsInf(p.SNRDB, 0) {
					out[d] = append(out[d], p.SNRDB)
				}
			}
		}
	}
	b.ReportMetric(stats.Mean(out[10]), "dB-meanSNR@10m")
}

func BenchmarkProtocolRTT(b *testing.B) {
	var out map[int]float64
	for i := 0; i < b.N; i++ {
		out, _ = experiments.RTT(experiments.Options{Seed: 1, Samples: 1})
	}
	b.ReportMetric(out[5], "s-roundtime-N5")
}

func BenchmarkFlipping(b *testing.B) {
	var single, triple float64
	for i := 0; i < b.N; i++ {
		single, triple, _ = experiments.Flipping(benchOpt(b, 3))
	}
	b.ReportMetric(single, "acc-single-voter")
	b.ReportMetric(triple, "acc-three-voters")
}

func BenchmarkBattery(b *testing.B) {
	var tab *stats.Table
	for i := 0; i < b.N; i++ {
		tab = experiments.Battery(experiments.Options{})
	}
	if len(tab.Rows) != 2 {
		b.Fatal("battery table malformed")
	}
}

func BenchmarkHeadline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Headline(benchOpt(b, 2))
	}
}

func BenchmarkAblationBandWindow(b *testing.B) {
	var out map[string][]float64
	for i := 0; i < b.N; i++ {
		out, _ = experiments.AblationBandWindow(benchOpt(b, 10))
	}
	b.ReportMetric(stats.Median(out["hann"]), "m-median-hann")
	b.ReportMetric(stats.Median(out["rectangular"]), "m-median-rect")
}

func BenchmarkAblationPrefilter(b *testing.B) {
	var rates map[string]float64
	for i := 0; i < b.N; i++ {
		rates, _ = experiments.AblationPrefilter(benchOpt(b, 16))
	}
	b.ReportMetric(rates["with prefilter"]-rates["without prefilter"], "detect-rate-gain")
}

func BenchmarkAblationRestarts(b *testing.B) {
	var out map[string][]float64
	for i := 0; i < b.N; i++ {
		out, _ = experiments.AblationRestarts(benchOpt(b, 40))
	}
	b.ReportMetric(stats.Median(out["restarts=2"])-stats.Median(out["restarts=0"]), "m-stress-gain")
}

func BenchmarkAblationReportBack(b *testing.B) {
	var out map[string][]float64
	for i := 0; i < b.N; i++ {
		out, _ = experiments.AblationReportBack(benchOpt(b, 2))
	}
	b.ReportMetric(stats.Median(out["full comm"])-stats.Median(out["lossless"]), "m-comm-cost")
}

// BenchmarkAblationOutlierGate compares Algorithm 1 with and without its
// unique-realizability gate: the gate prevents drops that would make the
// topology ambiguous.
func BenchmarkAblationOutlierGate(b *testing.B) {
	var out map[string][]float64
	for i := 0; i < b.N; i++ {
		out, _ = experiments.Fig19a(benchOpt(b, 2))
	}
	with := stats.Percentile(out["with"], 95)
	without := stats.Percentile(out["without"], 95)
	b.ReportMetric(without-with, "m-tail-reduction")
}
