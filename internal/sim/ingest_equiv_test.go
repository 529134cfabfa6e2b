package sim

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"uwpos/internal/channel"
	"uwpos/internal/device"
	"uwpos/internal/engine"
	"uwpos/internal/geom"
)

// This file is the shared-scan equivalence harness: the full RoundResult
// (timestamp table, distances, weights, depths, mic signs, latency) and
// the RangeOnce outcomes for every method are serialized at full float64
// precision and compared byte-for-byte against golden captures recorded
// with the pre-refactor independent-scan code, and across ingest chunk
// sizes. Any numerical drift in the ingest pipeline — a different block
// grid, a reordered reduction, a lost sample — fails these tests before
// it can reach an experiment table.

// dumpF prints a float64 with full round-trip precision, so two dumps are
// byte-equal iff every value is bit-equal (NaN prints as NaN).
func dumpF(v float64) string { return fmt.Sprintf("%.17g", v) }

func dumpMatrix(name string, m [][]float64, b *strings.Builder) {
	fmt.Fprintf(b, "%s:\n", name)
	for _, row := range m {
		for j, v := range row {
			if j > 0 {
				b.WriteByte(' ')
			}
			b.WriteString(dumpF(v))
		}
		b.WriteByte('\n')
	}
}

func dumpVec(name string, v []float64, b *strings.Builder) {
	fmt.Fprintf(b, "%s:", name)
	for _, x := range v {
		b.WriteByte(' ')
		b.WriteString(dumpF(x))
	}
	b.WriteByte('\n')
}

// dumpRound serializes every field of a RoundResult deterministically.
func dumpRound(res *RoundResult) string {
	var b strings.Builder
	dumpMatrix("table", res.Table.T, &b)
	dumpMatrix("D", res.D, &b)
	dumpMatrix("W", res.W, &b)
	dumpMatrix("trueD", res.TrueD, &b)
	dumpVec("depths", res.Depths, &b)
	dumpVec("trueDepths", res.TrueDepths, &b)
	fmt.Fprintf(&b, "micSigns: %v\n", res.MicSigns)
	fmt.Fprintf(&b, "latency: %s\n", dumpF(res.Latency))
	fmt.Fprintf(&b, "silent: %v\n", res.Silent)
	return b.String()
}

func threeDeviceDock(seed int64) Config {
	s9 := device.GalaxyS9
	specs := []DeviceSpec{
		{Model: s9(), Pos: geom.Vec3{X: 0, Y: 0, Z: 2.0}},
		{Model: s9(), Pos: geom.Vec3{X: 6, Y: 1.5, Z: 2.5}},
		{Model: s9(), Pos: geom.Vec3{X: 13, Y: -5, Z: 1.5}},
	}
	o, _ := LeaderOrientation(specs[0].Pos, specs[1].Pos, 0)
	specs[0].Orient = o
	return Config{Env: channel.Dock(), Devices: specs, Seed: seed}
}

// captureRound runs one full protocol round and serializes the result.
// chunk overrides the ingest buffer size (0 = default).
func captureRound(t *testing.T, seed int64, chunk int) string {
	t.Helper()
	cfg := threeDeviceDock(seed)
	cfg.IngestChunk = chunk
	nw, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := nw.RunRound(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return dumpRound(res)
}

// captureRanging runs one RangeOnce exchange per method and serializes
// the outcomes.
func captureRanging(t *testing.T, seed int64) string {
	t.Helper()
	var b strings.Builder
	for _, m := range []RangingMethod{MethodDualMic, MethodBottomMicOnly, MethodTopMicOnly, MethodBeepBeep, MethodCAT} {
		nw, err := NewNetwork(TwoDeviceConfig(channel.Dock(), 10, 2.5, 2.5, seed))
		if err != nil {
			t.Fatal(err)
		}
		res, err := nw.RangeOnce(context.Background(), m)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "%s: detected=%v est=%s true=%s\n",
			m, res.Detected, dumpF(res.EstimatedM), dumpF(res.TrueM))
	}
	return b.String()
}

func goldenPath(kind string, seed int64) string {
	return filepath.Join("testdata", fmt.Sprintf("%s_seed%d.golden", kind, seed))
}

// readGolden loads a pre-refactor capture.
func readGolden(t *testing.T, kind string, seed int64) string {
	t.Helper()
	want, err := os.ReadFile(goldenPath(kind, seed))
	if err != nil {
		t.Fatalf("missing golden (regenerate with UWPOS_WRITE_GOLDEN=1): %v", err)
	}
	return string(want)
}

// TestChunkSizeInvariance: the full RoundResult is byte-identical for
// every ingest buffer size — callback-grain buffers, huge buffers, or the
// entire stream in one push — and equal to the pre-refactor independent-
// scan capture. This is the partition-exactness of the shared scan
// observed end to end through calibration, detection and report-back.
func TestChunkSizeInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("full acoustic rounds are expensive")
	}
	for _, seed := range []int64{1, 7} {
		want := readGolden(t, "round", seed)
		for _, chunk := range []int{1024, 16384, 1 << 30} {
			if got := captureRound(t, seed, chunk); got != want {
				t.Errorf("seed %d chunk %d: round result differs from golden", seed, chunk)
			}
		}
	}
}

// TestWorkerCountInvariance: rounds dispatched through the parallel trial
// engine serialize identically at 1 and 8 workers — the ingest pipelines
// share nothing across trials.
func TestWorkerCountInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("full acoustic rounds are expensive")
	}
	const trials = 2
	run := func(workers int) []string {
		out, _ := engine.Run(context.Background(), engine.Config{Workers: workers}, trials, func(trial int, rng *rand.Rand) string {
			cfg := threeDeviceDock(0)
			cfg.Rng = rng
			nw, err := NewNetwork(cfg)
			if err != nil {
				t.Error(err)
				return ""
			}
			res, err := nw.RunRound(context.Background())
			if err != nil {
				t.Error(err)
				return ""
			}
			return dumpRound(res)
		})
		return out
	}
	serial := run(1)
	parallel := run(8)
	for i := range serial {
		if serial[i] == "" || serial[i] != parallel[i] {
			t.Errorf("trial %d: result differs between 1 and 8 workers", i)
		}
	}
}

// TestGoldenCaptures compares the current audio path against the checked
// in pre-refactor captures. Regenerate (only after verifying the change
// is intentional) with UWPOS_WRITE_GOLDEN=1.
func TestGoldenCaptures(t *testing.T) {
	if testing.Short() {
		t.Skip("full acoustic rounds are expensive")
	}
	write := os.Getenv("UWPOS_WRITE_GOLDEN") != ""
	for _, seed := range []int64{1, 7} {
		for kind, capture := range map[string]func(*testing.T, int64) string{
			"round":   func(t *testing.T, seed int64) string { return captureRound(t, seed, 0) },
			"ranging": captureRanging,
		} {
			got := capture(t, seed)
			path := goldenPath(kind, seed)
			if write {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				continue
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden %s (regenerate with UWPOS_WRITE_GOLDEN=1): %v", path, err)
			}
			if got != string(want) {
				t.Errorf("%s seed %d: output differs from pre-refactor capture", kind, seed)
			}
		}
	}
}
