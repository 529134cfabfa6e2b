package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"uwpos/internal/channel"
	"uwpos/internal/engine"
)

// TestMain runs the benchmark instead of the tests when setupChild starts
// the test binary as a fresh set-up process.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "--setup-child" {
		os.Exit(run(time.Now(), os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		p    float64
		need int
	}{{50, 20}, {90, 100}, {99, 1000}} {
		if got := samplesFor(c.p); got != c.need {
			t.Errorf("samplesFor(%g) = %d, want %d", c.p, got, c.need)
		}
		for _, n := range []int{c.need - 1, c.need} {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = float64(i + 1)
			}
			v, ok := percentile(xs, c.p)
			if ok != (n == c.need) {
				t.Errorf("p%g of %d samples: reportable %v", c.p, n, ok)
			}
			if beyond := n - int(v); ok && beyond < minBeyond {
				t.Errorf("p%g of %d samples = %g has only %d beyond", c.p, n, v, beyond)
			}
		}
	}
	ms := latencyLines("op", make([]time.Duration, 150), 50, 90, 99)
	if len(ms) != 3 || math.IsNaN(ms[0].value) || math.IsNaN(ms[1].value) || !math.IsNaN(ms[2].value) {
		t.Errorf("150 samples: want p50 and p90 reported and p99 omitted, got %+v", ms)
	}
}

// inputDigests hashes every workload's generated inputs for a seed.
func inputDigests(seed int64) map[string]string {
	out := map[string]string{}
	h := newDigest()
	for _, op := range genLocOps(seed, 2*len(locShapes)) {
		for i := range op.in.D {
			h.floats(op.in.D[i]...)
			h.floats(op.in.W[i]...)
		}
		h.floats(op.in.Depths...)
	}
	out["localize-mix"] = h.sum()

	h = newDigest()
	rec := newRecording(channel.Dock(), 2, seed, 7)
	h.floats(rec.mics[0]...)
	h.floats(rec.secondMic()...)
	out["receiver-stream"] = h.sum()

	h = newDigest()
	for t := 0; t < 3; t++ {
		h.ints(int(engine.TrialSeed(seed, t)), engine.Rand(seed, t).Int())
	}
	out["round-dock5"] = h.sum()

	b, _ := json.Marshal(sessionSpec(engine.TrialSeed(seed, 1000)))
	h = newDigest()
	h.floats(float64(len(b)))
	h.h.Write(b)
	out["serve-mixed"] = h.sum()
	return out
}

// locInputs7 pins localize-mix's inputs at seed 7: they come from the
// committed pools, so they change only when locpool.go or the drawing code
// does, never with the solver.
const locInputs7 = "f893cc40047e985a"

func TestSameSeedSameInputs(t *testing.T) {
	a, b, c := inputDigests(7), inputDigests(7), inputDigests(8)
	if got := a["localize-mix"]; got != locInputs7 {
		t.Errorf("localize-mix: seed 7 gave inputs %s, pinned %s", got, locInputs7)
	}
	for name, d := range a {
		if b[name] != d {
			t.Errorf("%s: seed 7 gave inputs %s, then %s", name, d, b[name])
		}
		if c[name] == d {
			t.Errorf("%s: seeds 7 and 8 gave the same inputs %s", name, d)
		}
	}
}

// TestSmokeRuns runs every workload at smoke size, timed and traced, and
// checks that its outputs pass and that a repeat gives the same digest.
func TestSmokeRuns(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			dir := t.TempDir()
			start := time.Now()
			cfg := setupConfig{seed: 3, outDir: dir, smoke: true}
			res, err := execute(w, cfg, 0.001, true, start)
			if err != nil {
				t.Fatal(err)
			}
			var out bytes.Buffer
			res.print(&out)
			if !res.correct() {
				t.Fatalf("checks failed:\n%s", out.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var js struct {
				Correct bool
				Metrics map[string]struct{ Value float64 }
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &js); err != nil {
				t.Fatalf("last line is not the JSON result: %v", err)
			}
			for _, m := range res.perLayer() {
				if _, ok := js.Metrics[m.name]; !ok {
					t.Errorf("traced result lacks %s", m.name)
				}
			}
			for _, f := range []string{res.spans, strings.TrimSuffix(res.spans, ".spans.json") + ".cpu.pprof"} {
				if _, err := os.Stat(f); err != nil {
					t.Errorf("artifact: %v", err)
				}
			}
			again, err := execute(w, cfg, 0.001, false, time.Now())
			if err != nil {
				t.Fatal(err)
			}
			if again.verdict.digest != res.verdict.digest {
				t.Errorf("digest %s, then %s", res.verdict.digest, again.verdict.digest)
			}
			for _, m := range again.endToEnd() {
				if !(m.value > 0) {
					t.Errorf("%s = %g, want > 0", m.name, m.value)
				}
			}
		})
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"uwpos/internal/channel.Render":           "channel",
		"uwpos/internal/ingest.(*Pipeline).Push":  "ingest",
		"uwpos.(*System).Locate":                  "uwpos",
		"runtime.mallocgc":                        "runtime",
		"internal/runtime/maps.(*Map).getWithKey": "runtime",
		"math.Sqrt":                           "math",
		"net/http.(*conn).serve":              "stdlib",
		"encoding/json.(*decodeState).object": "stdlib",
		"main.main":                           "perfbench",
		"slices.SortFunc[go.shape.[]uwpos/internal/graph.Edge]": "math",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// TestSetupChild sets localize-mix up in a fresh process, as a run does
// for setup_s.
func TestSetupChild(t *testing.T) {
	st, err := setupChild(localizeWorkload, setupConfig{seed: 3, outDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if !(st.Raw > 0 && st.Slowdown > 0) {
		t.Errorf("set-up time %+v, want positive", st)
	}
}
