package experiments

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"

	"uwpos/internal/stats"
)

// The experiment tests assert the *shape* each paper figure demands, at
// reduced trial counts so the suite stays runnable. Heavier full-stack
// experiments are exercised under -short via tiny sample counts.

func quickOpt(seed int64, samples int) Options {
	return Options{Seed: seed, Samples: samples}
}

// sweepMeans reads the per-point means of one §2.1.5 sweep.
func sweepMeans(p *Partial, id string, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = p.Sketch(id + "/" + ik(i)).Mean()
	}
	return out
}

func TestFig06aMonotone(t *testing.T) {
	p, tab := runFull(t, "fig06a", quickOpt(1, 40))
	vals := sweepMeans(p, "fig06a", len(fig06aErrs))
	if len(tab.Rows) != len(vals) {
		t.Fatal("row mismatch")
	}
	// Error must grow substantially from ε1d=0 to ε1d=2.
	if !(vals[len(vals)-1] > 3*vals[0]) {
		t.Errorf("no growth: %v", vals)
	}
	// Roughly linear: value at 1.0 between 0.8 and 2.5 m (paper ~1.5).
	if vals[4] < 0.8 || vals[4] > 2.8 {
		t.Errorf("ε1d=1.0 error %v out of paper band", vals[4])
	}
}

func TestFig06bMoreUsersHelp(t *testing.T) {
	p, _ := runFull(t, "fig06b", quickOpt(2, 40))
	vals := sweepMeans(p, "fig06b", len(fig06bUsers))
	// N=3 must be clearly worse than N=8.
	if !(vals[0] > vals[len(vals)-1]*1.3) {
		t.Errorf("more users did not help: %v", vals)
	}
}

func TestFig06cPointingErrorHurts(t *testing.T) {
	p, _ := runFull(t, "fig06c", quickOpt(3, 40))
	vals := sweepMeans(p, "fig06c", len(fig06cDegs))
	if !(vals[len(vals)-1] > vals[0]*1.3) {
		t.Errorf("pointing error had no effect: %v", vals)
	}
}

func TestFig06dDropsDegradeGracefully(t *testing.T) {
	p, _ := runFull(t, "fig06d", quickOpt(4, 40))
	vals := sweepMeans(p, "fig06d", len(fig06dDrops))
	// Mild growth: 3 drops worse than 0 drops, but not catastrophic.
	if !(vals[3] >= vals[0]) {
		t.Errorf("drops should not improve accuracy: %v", vals)
	}
	if vals[3] > vals[0]*4 {
		t.Errorf("drops degraded too harshly: %v", vals)
	}
}

func TestFig13bSensorOrdering(t *testing.T) {
	p, _ := runFull(t, "fig13b", quickOpt(5, 20))
	watch := stats.Mean(p.Sketch("fig13b/0").Values())
	phone := stats.Mean(p.Sketch("fig13b/1").Values())
	if !(watch < phone) {
		t.Errorf("watch %v should beat phone %v", watch, phone)
	}
	// One sensor instance per run (as in the paper's single-device
	// study), so the per-device bias draw widens the acceptable band.
	if watch < 0.03 || watch > 0.35 || phone < 0.15 || phone > 0.75 {
		t.Errorf("error bands off: watch %v phone %v", watch, phone)
	}
}

func TestFig16MeanNearFiveDegrees(t *testing.T) {
	p, tab := runFull(t, "fig16", quickOpt(6, 150))
	if len(tab.Rows) != 2 {
		t.Fatal("want 2 users")
	}
	// Each user's sketch holds the per-distance means, then the user's
	// grand mean at index len(fig16Dists).
	g := len(fig16Dists)
	mean := (p.Sketch("fig16/u0").Values()[g] + p.Sketch("fig16/u1").Values()[g]) / 2
	if mean < 3 || mean > 7 {
		t.Errorf("grand mean %.2f°, want ≈5°", mean)
	}
}

func TestBatteryTable(t *testing.T) {
	_, tab := runFull(t, "battery", Options{})
	if len(tab.Rows) != 2 {
		t.Fatal("want 2 devices")
	}
	// The rendered table must carry the 90% / 63% figures.
	if tab.Rows[0][2] != "90.00%" {
		t.Errorf("watch drain cell %q", tab.Rows[0][2])
	}
	if tab.Rows[1][2] != "62.86%" {
		t.Errorf("phone drain cell %q", tab.Rows[1][2])
	}
}

func TestFig22SNRFallsWithDistance(t *testing.T) {
	p, _ := runFull(t, "fig22", Options{Seed: 7})
	// Distance i of fig22Dists (10, 20, 28 m) keeps its subcarrier SNRs
	// in sketch fig22/i/snr.
	snrs := func(i int) []float64 {
		var out []float64
		for _, v := range p.Sketch("fig22/" + ik(i) + "/snr").Values() {
			if !math.IsInf(v, 0) {
				out = append(out, v)
			}
		}
		return out
	}
	at10, at28 := snrs(0), snrs(2)
	if len(at10) == 0 || len(at28) == 0 {
		t.Skip("detection miss in quick run")
	}
	if !(stats.Mean(at10) > stats.Mean(at28)+5) {
		t.Errorf("SNR should fall ≥5 dB from 10 m to 28 m: %v vs %v", stats.Mean(at10), stats.Mean(at28))
	}
}

func TestFig12aOursBeatsFMCW(t *testing.T) {
	if testing.Short() {
		t.Skip("acoustic detection study")
	}
	opt := quickOpt(8, 20)
	p, _ := runFull(t, "fig12a", opt)
	ratio := func(counter string) float64 {
		return float64(p.Counter("fig12a/"+counter)) / float64(opt.samples(60))
	}
	oursFP, oursFN := ratio("oursFP"), ratio("oursFN")
	if oursFP > 0.15 || oursFN > 0.15 {
		t.Errorf("our detector degraded: FP %v FN %v", oursFP, oursFN)
	}
	// The FMCW detector must show the FP/FN trade: high FP at low
	// thresholds or high FN at high ones — no threshold achieves both
	// error rates at our level simultaneously.
	var fp, fn []float64
	for i := range fig12aThresholds {
		fp = append(fp, ratio("fp/"+ik(i)))
		fn = append(fn, ratio("fn/"+ik(i)))
	}
	for i := range fp {
		if fp[i] <= oursFP+0.05 && fn[i] <= oursFN+0.05 {
			t.Log("note: FMCW matched ours at some threshold in this quick run")
			break
		}
	}
	if fp[0] < fp[len(fp)-1] {
		t.Errorf("FMCW FP should fall with threshold: %v", fp)
	}
}

func TestFig11aShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("acoustic ranging sweep")
	}
	p, _ := runFull(t, "fig11a", quickOpt(9, 8))
	// fig11aSeps: sketch 0 is the 10 m separation, sketch 2 the 35 m one.
	med10 := stats.Median(p.Sketch("fig11a/0").Values())
	if math.IsNaN(med10) || med10 > 1.0 {
		t.Errorf("10 m median %.2f, want sub-metre", med10)
	}
	// 95th percentile at 35m should not be better than the 10 m median.
	if tail := stats.Percentile(p.Sketch("fig11a/2").Values(), 95); !math.IsNaN(tail) && tail < med10/2 {
		t.Errorf("35 m tail %.2f implausibly better than 10 m median %.2f", tail, med10)
	}
}

func TestFig13aMidColumnBest(t *testing.T) {
	if testing.Short() {
		t.Skip("acoustic depth sweep")
	}
	p, _ := runFull(t, "fig13a", quickOpt(10, 8))
	// fig13aDepths: sketches 0, 1 and 2 hold the 2, 5 and 8 m depths.
	m2 := stats.Median(p.Sketch("fig13a/0").Values())
	m5 := stats.Median(p.Sketch("fig13a/1").Values())
	m8 := stats.Median(p.Sketch("fig13a/2").Values())
	if math.IsNaN(m5) || math.IsNaN(m2) || math.IsNaN(m8) {
		t.Skip("miss in quick run")
	}
	// Mid-column must not be decisively the worst (paper: it is the
	// best). At quick-run sample counts the three medians sit within a
	// few centimetres, so require a clear margin before failing.
	const tol = 0.05
	if m5 > m2+tol && m5 > m8+tol {
		t.Errorf("mid-column worst: 2m=%.2f 5m=%.2f 8m=%.2f", m2, m5, m8)
	}
}

// TestRTTTableMatchesProtocol checks the N and analytic cells, which need
// no round, on a table rendered from an empty Partial under -short; only
// a full run plays the five acoustic rounds and checks the measured
// cells.
func TestRTTTableMatchesProtocol(t *testing.T) {
	opt := Options{Seed: 11, Samples: 1}
	var tab *stats.Table
	if testing.Short() {
		var err error
		if tab, err = RenderPartial("rtt", opt, NewPartial()); err != nil {
			t.Fatal(err)
		}
	} else {
		_, tab = runFull(t, "rtt", opt)
	}
	want := []string{"1.24", "1.56", "1.88", "2.20", "2.52"} // N = 3..7
	if len(tab.Rows) != len(want) {
		t.Fatalf("rows %d", len(tab.Rows))
	}
	for i, row := range tab.Rows {
		if row[0] != stats.F(float64(3+i)) || row[1] != want[i] {
			t.Errorf("row %d: N %s analytic %s, want N %d analytic %s", i, row[0], row[1], 3+i, want[i])
		}
		if testing.Short() {
			continue
		}
		if _, err := strconv.ParseFloat(row[2], 64); err != nil {
			t.Errorf("row %d: measured cell %q is not a number", i, row[2])
		}
	}
}

func TestHeadlineTableRenders(t *testing.T) {
	if testing.Short() {
		t.Skip("aggregates full-stack runs")
	}
	_, tab := runFull(t, "headline", Options{Seed: 12, Samples: 3, Quick: true})
	if len(tab.Rows) < 7 {
		t.Errorf("headline rows %d", len(tab.Rows))
	}
	s := tab.Format()
	if len(s) == 0 {
		t.Error("empty render")
	}
}

func TestAblationBandWindow(t *testing.T) {
	if testing.Short() {
		t.Skip("acoustic ablation")
	}
	p, _ := runFull(t, "ablation-bandwindow", quickOpt(20, 12))
	out := map[string][]float64{}
	for _, k := range []string{"hann", "rectangular"} {
		out[k] = p.Sketch("ablation-bandwindow/" + k).Values()
		if len(out[k]) == 0 {
			t.Skip("no detections in quick run")
		}
	}
	// Both should produce sub-2 m medians; the table quantifies the gap.
	for k, es := range out {
		if m := stats.Median(es); m > 2 {
			t.Errorf("%s median %.2f m", k, m)
		}
	}
}

func TestAblationPrefilter(t *testing.T) {
	if testing.Short() {
		t.Skip("acoustic ablation")
	}
	opt := quickOpt(21, 20)
	p, _ := runFull(t, "ablation-prefilter", opt)
	on := float64(p.Counter("ablation-prefilter/on")) / float64(opt.samples(60))
	off := float64(p.Counter("ablation-prefilter/off")) / float64(opt.samples(60))
	if on < off {
		t.Errorf("prefilter should not hurt: with %v, without %v", on, off)
	}
	if on < 0.8 {
		t.Errorf("prefilter detection rate %.2f too low", on)
	}
}

// TestWorkerCountInvariance pins the engine's determinism contract at the
// experiment level: the same Options must produce byte-identical tables no
// matter how many workers run the trials.
func TestWorkerCountInvariance(t *testing.T) {
	samples := map[string]int{"fig06a": 20, "ablation-restarts": 20}
	if !testing.Short() {
		samples["fig13a"] = 2 // the full acoustic stack
	}
	for id, n := range samples {
		_, serial := runFull(t, id, Options{Seed: 7, Samples: n, Workers: 1})
		_, parallel := runFull(t, id, Options{Seed: 7, Samples: n, Workers: 8})
		if serial.Format() != parallel.Format() {
			t.Errorf("%s differs across worker counts:\n%s\nvs\n%s", id, serial.Format(), parallel.Format())
		}
	}
}

func TestAblationRestarts(t *testing.T) {
	p, _ := runFull(t, "ablation-restarts", quickOpt(22, 40))
	// Restarts find equal-or-higher stress basins (better detectability).
	m0 := stats.Median(p.Sketch("ablation-restarts/restarts=0").Values())
	m2 := stats.Median(p.Sketch("ablation-restarts/restarts=2").Values())
	if m2 < m0*0.8 {
		t.Errorf("restarts reduced found stress: %v vs %v", m2, m0)
	}
}

// TestStreamingVerdicts pins the streaming table's result column, the
// only end-to-end check that chunked detection finds what one-shot
// detection finds and that the shared ingest pipeline agrees with the
// receiver's separate scans while paying fewer forward transforms.
func TestStreamingVerdicts(t *testing.T) {
	_, tab := runFull(t, "streaming", quickOpt(1, 1))
	result := map[string]string{}
	for _, row := range tab.Rows {
		result[row[0]] = row[len(row)-1]
	}
	var dets int
	if _, err := fmt.Sscanf(result["detect one-shot"], "%d det", &dets); err != nil || dets < 2 {
		t.Errorf("one-shot detections %q, want at least 2 (two preambles)", result["detect one-shot"])
	}
	if got := result["detect chunked 4096"]; got != "match" {
		t.Errorf("chunked detection verdict %q, want match", got)
	}
	shared := result["receiver shared ingest"]
	if !strings.HasSuffix(shared, "xf, match") {
		t.Fatalf("shared ingest verdict %q, want it to end in \"xf, match\"", shared)
	}
	var sharedXF, legacyXF int
	if _, err := fmt.Sscanf(shared, "%d xf", &sharedXF); err != nil {
		t.Fatalf("shared ingest verdict %q: %v", shared, err)
	}
	if _, err := fmt.Sscanf(result["receiver legacy scans"], "%d xf", &legacyXF); err != nil {
		t.Fatalf("legacy scans verdict %q: %v", result["receiver legacy scans"], err)
	}
	if sharedXF >= legacyXF {
		t.Errorf("shared ingest paid %d forward transforms, legacy %d: want fewer", sharedXF, legacyXF)
	}
}

// TestFullStackIDsRender runs, once each at one sample, the ids that no
// other test reaches, so every render half executes under go test.
func TestFullStackIDsRender(t *testing.T) {
	if testing.Short() {
		t.Skip("acoustic and full-stack rounds")
	}
	for _, id := range []string{
		"fig11b", "fig12b", "fig14a", "fig14b", "fig15", "fig19a", "fig19b",
		"fig19b-4dev", "fig20", "flipping", "ablation-reportback",
	} {
		t.Run(id, func(t *testing.T) {
			if _, table := runFull(t, id, Options{Seed: 1, Samples: 1, Quick: true}); len(table.Rows) == 0 {
				t.Errorf("%s rendered no rows", id)
			}
		})
	}
}
