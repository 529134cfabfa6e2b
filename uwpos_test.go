package uwpos

import (
	"context"
	"math"
	"testing"
)

func TestLocalizePureAlgorithm(t *testing.T) {
	// Hand-built exact scenario: leader at origin pointing +x at device 1.
	truth := []Vec3{
		{X: 0, Y: 0, Z: 2},
		{X: 8, Y: 0, Z: 3},
		{X: 14, Y: -6, Z: 1},
		{X: 10, Y: 9, Z: 4},
	}
	n := len(truth)
	in := Input{
		Distances: make([][]float64, n),
		Weights:   make([][]float64, n),
		Depths:    make([]float64, n),
		MicSigns:  make([]int, n),
	}
	for i := range truth {
		in.Distances[i] = make([]float64, n)
		in.Weights[i] = make([]float64, n)
		in.Depths[i] = truth[i].Z
		for j := range truth {
			if i != j {
				in.Distances[i][j] = truth[i].Dist(truth[j])
				in.Weights[i][j] = 1
			}
		}
	}
	in.MicSigns[2] = 1  // right of the +x pointing line (y < 0)
	in.MicSigns[3] = -1 // left
	res, err := Localize(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	if res.ResidualStress > 1e-4 {
		t.Errorf("stress %g", res.ResidualStress)
	}
	for i, p := range res.Positions {
		want := truth[i].Sub(truth[0])
		want.Z = truth[i].Z
		if e := p.Pos.Sub(want).Norm(); e > 1e-3 {
			t.Errorf("device %d: %+v vs %+v", i, p.Pos, want)
		}
	}
}

func TestLocalizeErrors(t *testing.T) {
	if _, err := Localize(context.Background(), Input{}); err == nil {
		t.Error("empty input should error")
	}
}

func TestNewSystemValidation(t *testing.T) {
	if _, err := NewSystem(SystemConfig{}); err == nil {
		t.Error("nil env should fail")
	}
	if _, err := NewSystem(SystemConfig{Env: Dock(), Divers: []Diver{{}, {}}}); err == nil {
		t.Error("2 divers should fail")
	}
}

func TestEnvironmentByName(t *testing.T) {
	for _, name := range []string{"pool", "dock", "viewpoint", "boathouse"} {
		env, err := EnvironmentByName(name)
		if err != nil || env == nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	if _, err := EnvironmentByName("mariana"); err == nil {
		t.Error("unknown env should fail")
	}
}

func TestRangeBetween(t *testing.T) {
	out, err := RangeBetween(context.Background(), RangeConfig{Env: Dock(), SeparationM: 15, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(out.TrueM-15) > 1e-9 {
		t.Errorf("true distance %g", out.TrueM)
	}
	if math.Abs(out.EstimatedM-out.TrueM) > 1.2 {
		t.Errorf("ranging error %.2f m", math.Abs(out.EstimatedM-out.TrueM))
	}
}

func TestSystemLocateEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("full system round is expensive")
	}
	sys, err := NewSystem(SystemConfig{
		Env: Dock(),
		Divers: []Diver{
			{Pos: Vec3{X: 0, Y: 0, Z: 2}},
			{Pos: Vec3{X: 6, Y: 1.5, Z: 2.5}},
			{Pos: Vec3{X: 13, Y: -5, Z: 1.5}},
			{Pos: Vec3{X: 10, Y: 8, Z: 3.5}},
			{Pos: Vec3{X: 20, Y: 2, Z: 2.5}},
		},
		Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	out, err := sys.Locate(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Result.Positions) != 5 {
		t.Fatalf("%d positions", len(out.Result.Positions))
	}
	for i, e := range out.Err2D {
		if e > 3 {
			t.Errorf("device %d 2D error %.2f m", i, e)
		}
	}
	if out.LatencySec < 1.4 || out.LatencySec > 2.4 {
		t.Errorf("latency %.2f s", out.LatencySec)
	}
}

func TestGroupTrackerPublicAPI(t *testing.T) {
	g := NewGroupTracker(TrackerConfig{ProcessAccel: 0.01})
	res := &Result{Positions: []Position{
		{Device: 0, Pos: Vec3{X: 0, Y: 0, Z: 2}},
		{Device: 1, Pos: Vec3{X: 5, Y: 1, Z: 3}},
		{Device: 2, Pos: Vec3{X: 10, Y: -2, Z: 1}},
	}}
	for k := 0; k < 5; k++ {
		if err := g.AddRound(float64(k)*5, res); err != nil {
			t.Fatal(err)
		}
	}
	pos := g.PositionsAt(25)
	if len(pos) != 3 {
		t.Fatalf("tracked %d", len(pos))
	}
	if pos[1].Sub(Vec3{X: 5, Y: 1, Z: 3}).Norm() > 0.2 {
		t.Errorf("static track drifted: %+v", pos[1])
	}
	if v := g.VelocityOf(1).Norm(); v > 0.1 {
		t.Errorf("phantom velocity %.2f", v)
	}
	if g.VelocityOf(9) != (Vec2{}) {
		t.Error("untracked velocity should be zero")
	}
	if !math.IsInf(g.UncertaintyOf(9), 1) {
		t.Error("untracked uncertainty should be +Inf")
	}
	if g.UncertaintyOf(1) > 1 {
		t.Errorf("uncertainty %.2f", g.UncertaintyOf(1))
	}
}
