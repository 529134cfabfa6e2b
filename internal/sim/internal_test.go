package sim

import (
	"context"
	"math"
	"testing"

	"uwpos/internal/channel"
	"uwpos/internal/device"
	"uwpos/internal/geom"
)

func TestPairKeyNormalizes(t *testing.T) {
	if pairKey(3, 1) != pairKey(1, 3) {
		t.Error("pair key must be order-free")
	}
	if pairKey(0, 2) == pairKey(0, 1) {
		t.Error("distinct pairs must differ")
	}
}

func TestMicOffsetSamples(t *testing.T) {
	// 16 cm at 44.1 kHz with the conservative 1400 m/s: ceil(5.04)+1 = 7.
	if got := micOffsetSamples(0.16, 44100); got != 7 {
		t.Errorf("micOffsetSamples = %d, want 7", got)
	}
	// Watch-scale separation is much tighter.
	if got := micOffsetSamples(0.037, 44100); got > 3 {
		t.Errorf("watch offset %d too large", got)
	}
}

func TestFinishDepths(t *testing.T) {
	d := []float64{2.0, math.NaN(), 3.0, math.NaN()}
	finishDepths(d)
	// Median of {2,3} (upper) = 3.
	if d[1] != 3 || d[3] != 3 {
		t.Errorf("median fallback wrong: %v", d)
	}
	if d[0] != 2 || d[2] != 3 {
		t.Error("known depths must be preserved")
	}
	// All unknown: zeros.
	all := []float64{math.NaN(), math.NaN()}
	finishDepths(all)
	if all[0] != 0 || all[1] != 0 {
		t.Errorf("all-unknown fallback: %v", all)
	}
}

func TestStreamDurationCoversProtocolAndReports(t *testing.T) {
	cfg := fiveDeviceDock(1)
	nw, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dur := nw.streamDuration()
	// Must cover query + worst-case slots + report phase.
	min := queryAt + nw.proto.RoundTime(false) + nw.reportDuration(nw.N())
	if dur < min {
		t.Errorf("duration %.2f below minimum %.2f", dur, min)
	}
	// Lossless mode is shorter.
	cfg2 := fiveDeviceDock(1)
	cfg2.DisableReportBack = true
	nw2, _ := NewNetwork(cfg2)
	if nw2.streamDuration() >= dur {
		t.Error("lossless streams should be shorter")
	}
}

func TestMessageWaveLayout(t *testing.T) {
	cfg := fiveDeviceDock(1)
	nw, _ := NewNetwork(cfg)
	w := nw.messageWave(2, 0)
	wantLen := nw.params.PreambleLen() + nw.idLen
	if len(w) != wantLen {
		t.Errorf("message length %d, want %d", len(w), wantLen)
	}
	// T_packet check: ≈278 ms at 44.1 kHz.
	if dur := float64(len(w)) / nw.params.SampleRate; math.Abs(dur-0.278) > 0.002 {
		t.Errorf("packet duration %.3f s, want ≈0.278", dur)
	}
}

func TestLinkGainComposition(t *testing.T) {
	cfg := TwoDeviceConfig(channel.Dock(), 10, 2, 2, 1)
	nw, _ := NewNetwork(cfg)
	if err := nw.setupDevices(1); err != nil {
		t.Fatal(err)
	}
	a, b := nw.devices[0], nw.devices[1]
	posA := geom.Vec3{X: 0, Y: 0, Z: 2}
	posB := geom.Vec3{X: 10, Y: 0, Z: 2}
	g := nw.linkGain(a, b, 0, posA, posB)
	if g <= 0 {
		t.Fatalf("gain %g", g)
	}
	// A weaker TX model scales the gain down proportionally.
	watch := device.WatchUltra()
	a.spec.Model = watch
	g2 := nw.linkGain(a, b, 0, posA, posB)
	if math.Abs(g2/g-watch.TXEfficiency/device.GalaxyS9().TXEfficiency) > 1e-9 {
		t.Errorf("TX efficiency not applied: ratio %g", g2/g)
	}
}

func TestOcclusionCreatesDistanceOutlier(t *testing.T) {
	if testing.Short() {
		t.Skip("acoustic exchange")
	}
	// With the shallow-occlusion model, the earliest audible path is a
	// bottom bounce: the measured distance must overshoot by metres,
	// not merely lose SNR (Fig. 19a's premise).
	env := channel.Dock()
	cfg := TwoDeviceConfig(env, 6.2, 1.5, 1.5, 5)
	cfg.Faults = []LinkFault{{A: 0, B: 1, DirectAtt: 0.02}}
	nw, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := nw.RangeOnce(context.Background(), MethodDualMic)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Detected {
		t.Skip("occluded exchange undetected at this seed")
	}
	if res.EstimatedM < res.TrueM+2 {
		t.Errorf("occlusion should inflate distance: est %.2f vs true %.2f",
			res.EstimatedM, res.TrueM)
	}
}
