package sim

import (
	"context"
	"math"
	"strings"
	"testing"

	"uwpos/internal/channel"
	"uwpos/internal/core"
	"uwpos/internal/device"
	"uwpos/internal/geom"
)

func TestNewNetworkValidation(t *testing.T) {
	env := channel.Dock()
	if _, err := NewNetwork(Config{}); err == nil {
		t.Error("nil env should fail")
	}
	if _, err := NewNetwork(Config{Env: env}); err == nil {
		t.Error("no devices should fail")
	}
	bad := Config{Env: env, Devices: []DeviceSpec{
		{Model: device.GalaxyS9(), Pos: geom.Vec3{Z: 2}},
		{Model: device.GalaxyS9(), Pos: geom.Vec3{X: 5, Z: 50}}, // below bottom
	}}
	if _, err := NewNetwork(bad); err == nil {
		t.Error("device below the bottom should fail")
	}
	badFault := Config{Env: env, Devices: []DeviceSpec{
		{Model: device.GalaxyS9(), Pos: geom.Vec3{Z: 2}},
		{Model: device.GalaxyS9(), Pos: geom.Vec3{X: 5, Z: 2}},
	}, Faults: []LinkFault{{A: 0, B: 9}}}
	if _, err := NewNetwork(badFault); err == nil {
		t.Error("fault on unknown pair should fail")
	}
}

// TestNewNetworkRejectsNonFinitePosition: a NaN or infinite coordinate
// on any axis fails construction, naming the device and the axis, before
// any acoustics run.
func TestNewNetworkRejectsNonFinitePosition(t *testing.T) {
	for _, axis := range []string{"X", "Y", "Z"} {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			cfg := TwoDeviceConfig(channel.Dock(), 5, 2, 2, 1)
			pos := &cfg.Devices[1].Pos
			switch axis {
			case "X":
				pos.X = v
			case "Y":
				pos.Y = v
			case "Z":
				pos.Z = v
			}
			_, err := NewNetwork(cfg)
			if err == nil {
				t.Errorf("%s = %g: NewNetwork succeeded", axis, v)
				continue
			}
			if msg := err.Error(); !strings.Contains(msg, "device 1") || !strings.Contains(msg, "position "+axis) {
				t.Errorf("%s = %g: error %q does not name device 1 and axis %s", axis, v, msg, axis)
			}
		}
	}
}

// TestNewNetworkRejectsGroupTooLargeForReports: the report phase gives
// each device an FSK sub-band of (5000 − 1000 Hz) / N, and its three
// tones need 100 Hz each, so N ≤ 13. A larger group fails construction
// unless report-back is off, since lossless-report networks never build
// the modem.
func TestNewNetworkRejectsGroupTooLargeForReports(t *testing.T) {
	group := func(n int, lossless bool) Config {
		cfg := Config{Env: channel.Dock(), Seed: 1, DisableReportBack: lossless}
		for i := 0; i < n; i++ {
			cfg.Devices = append(cfg.Devices, DeviceSpec{Model: device.GalaxyS9(), Pos: geom.Vec3{X: float64(3 * i), Z: 2}})
		}
		return cfg
	}
	if _, err := NewNetwork(group(13, false)); err != nil {
		t.Errorf("13 devices: %v", err)
	}
	_, err := NewNetwork(group(14, false))
	if err == nil || !strings.Contains(err.Error(), "sub-band too narrow") {
		t.Errorf("14 devices with report-back: error %v, want the modem's sub-band check", err)
	}
	if _, err := NewNetwork(group(14, true)); err != nil {
		t.Errorf("14 devices with lossless reports: %v", err)
	}
}

func TestTrajectories(t *testing.T) {
	lin := Linear(geom.Vec3{X: 1}, geom.Vec3{X: 2})
	if p := lin(3); math.Abs(p.X-7) > 1e-12 {
		t.Errorf("linear(3) = %+v", p)
	}
	osc := Oscillate(geom.Vec3{}, geom.Vec3{X: 1}, 2, 0.5)
	// Period = 4*2/0.5 = 16 s; at t=4 (quarter+...) position bounded.
	for _, tt := range []float64{0, 1, 4, 7.9, 8, 12, 16, 23} {
		p := osc(tt)
		if p.X < -2.001 || p.X > 2.001 {
			t.Errorf("oscillate(%g) = %g outside ±2", tt, p.X)
		}
	}
	if p := osc(0); p.X != 0 {
		t.Errorf("oscillate(0) = %g", p.X)
	}
	// Degenerate parameters freeze in place.
	frozen := Oscillate(geom.Vec3{X: 5}, geom.Vec3{X: 1}, 0, 1)
	if p := frozen(9); p.X != 5 {
		t.Error("degenerate oscillation should stay put")
	}
}

func TestRangeOnceDualMic10m(t *testing.T) {
	cfg := TwoDeviceConfig(channel.Dock(), 10, 2.5, 2.5, 42)
	nw, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := nw.RangeOnce(context.Background(), MethodDualMic)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Detected {
		t.Fatal("exchange not detected")
	}
	if e := res.AbsError(); e > 1.0 {
		t.Errorf("10 m ranging error %.2f m", e)
	}
}

func TestRangeOnceAllMethodsDetect(t *testing.T) {
	for _, m := range []RangingMethod{MethodDualMic, MethodBottomMicOnly, MethodTopMicOnly, MethodBeepBeep, MethodCAT} {
		cfg := TwoDeviceConfig(channel.Dock(), 12, 2.0, 2.5, 7)
		nw, err := NewNetwork(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := nw.RangeOnce(context.Background(), m)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if !res.Detected {
			t.Errorf("%v: not detected", m)
			continue
		}
		if e := res.AbsError(); e > 5 {
			t.Errorf("%v: error %.2f m implausibly large", m, e)
		}
	}
}

func TestMethodStrings(t *testing.T) {
	names := map[RangingMethod]string{
		MethodDualMic: "ours-dual-mic", MethodBottomMicOnly: "bottom-only",
		MethodTopMicOnly: "top-only", MethodBeepBeep: "beepbeep",
		MethodCAT: "cat-fmcw", RangingMethod(99): "unknown",
	}
	for m, want := range names {
		if got := m.String(); got != want {
			t.Errorf("%d: %q != %q", int(m), got, want)
		}
	}
}

// fiveDeviceDock mirrors the Fig. 17a testbed: five phones at 3–25 m from
// the leader at mixed depths.
func fiveDeviceDock(seed int64) Config {
	s9 := device.GalaxyS9
	specs := []DeviceSpec{
		{Model: s9(), Pos: geom.Vec3{X: 0, Y: 0, Z: 2.0}},
		{Model: s9(), Pos: geom.Vec3{X: 6, Y: 1.5, Z: 2.5}},
		{Model: s9(), Pos: geom.Vec3{X: 13, Y: -5, Z: 1.5}},
		{Model: s9(), Pos: geom.Vec3{X: 10, Y: 8, Z: 3.5}},
		{Model: s9(), Pos: geom.Vec3{X: 20, Y: 2, Z: 2.5}},
	}
	// Leader points at device 1.
	o, _ := LeaderOrientation(specs[0].Pos, specs[1].Pos, 0)
	specs[0].Orient = o
	return Config{Env: channel.Dock(), Devices: specs, Seed: seed}
}

func TestFullRoundFiveDevices(t *testing.T) {
	if testing.Short() {
		t.Skip("full acoustic round is expensive")
	}
	cfg := fiveDeviceDock(1)
	nw, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	round, err := nw.RunRound(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(round.Silent) != 0 {
		t.Fatalf("silent devices: %v", round.Silent)
	}
	// Every pair should resolve with sub-metre-ish error.
	n := nw.N()
	resolved := 0
	var worst float64
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if round.W[i][j] > 0 {
				resolved++
				if e := math.Abs(round.D[i][j] - round.TrueD[i][j]); e > worst {
					worst = e
				}
			}
		}
	}
	if resolved < 9 {
		t.Errorf("only %d/10 links resolved", resolved)
	}
	if worst > 1.5 {
		t.Errorf("worst pairwise error %.2f m", worst)
	}
	// Latency should be near the paper's 1.9 s for N=5.
	if round.Latency < 1.5 || round.Latency > 2.3 {
		t.Errorf("latency %.2f s, want ≈1.9", round.Latency)
	}

	// Localize and score.
	_, bearing := LeaderOrientation(cfg.Devices[0].Pos, cfg.Devices[1].Pos, 0)
	loc, err := nw.LocalizeRound(context.Background(), round, bearing, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	var worst2D float64
	for i, e := range loc.Err2D {
		if e > worst2D {
			worst2D = e
		}
		t.Logf("device %d: 2D err %.2f m, 3D err %.2f m", i, e, loc.Err3D[i])
	}
	if worst2D > 3.0 {
		t.Errorf("worst 2D localization error %.2f m", worst2D)
	}
}

// BenchmarkRoundDock5 is one full acoustic protocol round of the Fig. 17
// dock testbed: network set-up and RunRound, i.e. channel rendering,
// noise, calibration, ingest and report decode.
func BenchmarkRoundDock5(b *testing.B) {
	cfg := fiveDeviceDock(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		nw, err := NewNetwork(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := nw.RunRound(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

func TestRoundWithDroppedLink(t *testing.T) {
	if testing.Short() {
		t.Skip("full acoustic round is expensive")
	}
	cfg := fiveDeviceDock(3)
	cfg.Faults = []LinkFault{{A: 2, B: 4, Drop: true}}
	nw, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	round, err := nw.RunRound(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if round.W[2][4] != 0 {
		t.Error("dropped link should be unresolved")
	}
	_, bearing := LeaderOrientation(cfg.Devices[0].Pos, cfg.Devices[1].Pos, 0)
	loc, err := nw.LocalizeRound(context.Background(), round, bearing, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range loc.Err2D {
		if e > 3.5 {
			t.Errorf("device %d error %.2f m with missing link", i, e)
		}
	}
}

func TestLeaderOrientationConvention(t *testing.T) {
	leader := geom.Vec3{X: 0, Y: 0, Z: 2}
	pointed := geom.Vec3{X: 10, Y: 0, Z: 2}
	o, bearing := LeaderOrientation(leader, pointed, 0)
	if math.Abs(bearing) > 1e-12 {
		t.Errorf("bearing %g, want 0", bearing)
	}
	// Mic axis perpendicular: mic 1 (top) should be on the LEFT (+y).
	mics := device.GalaxyS9().MicWorldPositions(leader, o)
	if mics[1].Y < mics[0].Y {
		t.Errorf("top mic at %+v should be left of bottom mic %+v", mics[1], mics[0])
	}
	// Pointing error rotates the bearing.
	_, b2 := LeaderOrientation(leader, pointed, 0.1)
	if math.Abs(b2-0.1) > 1e-12 {
		t.Errorf("bearing with error %g", b2)
	}
}
