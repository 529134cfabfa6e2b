package sim

import (
	"context"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"uwpos/internal/channel"
	"uwpos/internal/device"
	"uwpos/internal/geom"
)

// Round pins: Seed-built rounds with the §2.4 report phase on, compared
// against captures in testdata/. A pin holds every float of D, W, Depths
// and Latency as IEEE-754 bits, plus MicSigns, Silent and the scenario's
// raw RNG draw count after the round, so a change that drops, adds or
// reorders a draw fails here even where the outputs happen to match.
// Regenerate (only after verifying the change is intentional) with
// UWPOS_WRITE_GOLDEN=1.

// poolTrio is the three-diver pool group uwposd's load test creates.
func poolTrio(seed int64) Config {
	s9 := device.GalaxyS9
	specs := []DeviceSpec{
		{Model: s9(), Pos: geom.Vec3{X: 0, Y: 0, Z: 1.5}},
		{Model: s9(), Pos: geom.Vec3{X: 5, Y: 1, Z: 2.0}},
		{Model: s9(), Pos: geom.Vec3{X: 8, Y: -3, Z: 1.0}},
	}
	specs[0].Orient, _ = LeaderOrientation(specs[0].Pos, specs[1].Pos, 0)
	return Config{Env: channel.Pool(), Devices: specs, Seed: seed}
}

// dock13 is the five-phone dock testbed plus eight fixed divers 3–23 m
// from the leader, the largest group the pins cover.
func dock13(seed int64) Config {
	cfg := fiveDeviceDock(seed)
	for _, p := range []geom.Vec3{
		{X: -3, Y: 0, Z: 2.0},   // 3.0 m
		{X: 2, Y: -5, Z: 3.0},   // 5.5 m
		{X: -6, Y: 5, Z: 1.0},   // 7.9 m
		{X: 4, Y: -10, Z: 4.0},  // 11.0 m
		{X: -12, Y: -7, Z: 2.5}, // 13.9 m
		{X: 15, Y: -8, Z: 3.0},  // 17.0 m
		{X: -8, Y: 18, Z: 2.0},  // 19.7 m
		{X: 22, Y: -6, Z: 1.5},  // 22.8 m
	} {
		cfg.Devices = append(cfg.Devices, DeviceSpec{Model: device.GalaxyS9(), Pos: p})
	}
	return cfg
}

// pinRound runs one round of cfg and serializes what the pin holds.
func pinRound(t *testing.T, cfg Config) string {
	t.Helper()
	nw, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := nw.RunRound(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	draws, ok := nw.RNGDraws()
	if !ok {
		t.Fatal("pinned scenarios must be Seed-built")
	}
	var b strings.Builder
	bits := func(name string, vs ...float64) {
		b.WriteString(name + ":")
		for _, v := range vs {
			fmt.Fprintf(&b, " %016x", math.Float64bits(v))
		}
		b.WriteByte('\n')
	}
	for i, row := range res.D {
		bits(fmt.Sprintf("D[%d]", i), row...)
	}
	for i, row := range res.W {
		bits(fmt.Sprintf("W[%d]", i), row...)
	}
	bits("depths", res.Depths...)
	bits("latency", res.Latency)
	fmt.Fprintf(&b, "micSigns: %v\nsilent: %v\ndraws: %d\n", res.MicSigns, res.Silent, draws)
	return b.String()
}

func TestRoundPins(t *testing.T) {
	write := os.Getenv("UWPOS_WRITE_GOLDEN") != ""
	for _, tc := range []struct {
		kind string
		seed int64
		cfg  func(seed int64) Config
	}{
		{"pin_pool3", 1, poolTrio},
		{"pin_pool3", 7, poolTrio},
		{"pin_dock13", 1, dock13},
	} {
		t.Run(fmt.Sprintf("%s_seed%d", tc.kind, tc.seed), func(t *testing.T) {
			if testing.Short() && tc.kind == "pin_dock13" {
				t.Skip("13-diver acoustic round is expensive")
			}
			got := pinRound(t, tc.cfg(tc.seed))
			if write {
				if err := os.WriteFile(goldenPath(tc.kind, tc.seed), []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			if want := readGolden(t, tc.kind, tc.seed); got != want {
				t.Errorf("round differs from its pin:\ngot:\n%swant:\n%s", got, want)
			}
		})
	}
}
