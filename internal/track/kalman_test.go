package track

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"uwpos/internal/geom"
)

func TestTrackerRequiresFixes(t *testing.T) {
	tr := NewTracker(FilterConfig{})
	if _, err := tr.PositionAt(0); err == nil {
		t.Error("position before any fix should error")
	}
	if !math.IsInf(tr.Uncertainty(), 1) {
		t.Error("uncertainty before fixes should be +Inf")
	}
}

func TestTrackerRejectsBadFixes(t *testing.T) {
	tr := NewTracker(FilterConfig{})
	if err := tr.Fix(0, geom.Vec3{X: math.NaN()}); err == nil {
		t.Error("NaN fix should error")
	}
	if err := tr.Fix(10, geom.Vec3{X: 1}); err != nil {
		t.Fatal(err)
	}
	if err := tr.Fix(5, geom.Vec3{X: 2}); err == nil {
		t.Error("out-of-order fix should error")
	}
}

func smoothCfg() FilterConfig {
	// Precision assertions need a small tracking index
	// λ = a·dt²/σ_fix ≪ 1; at 4–5 s fix spacing that means a ≈ 0.01 m/s²
	// (a deliberately calm diver). The default 0.2 m/s² trades smoothing for
	// responsiveness to real diver acceleration.
	return FilterConfig{ProcessAccel: 0.01, FixStd: 0.8, MaxSpeed: 1.5}
}

func TestTrackerConvergesOnStaticDiver(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tr := NewTracker(smoothCfg())
	truth := geom.Vec3{X: 10, Y: -4, Z: 3}
	for k := 0; k < 30; k++ {
		fix := geom.Vec3{
			X: truth.X + 0.8*rng.NormFloat64(),
			Y: truth.Y + 0.8*rng.NormFloat64(),
			Z: truth.Z,
		}
		if err := tr.Fix(float64(k)*5, fix); err != nil {
			t.Fatal(err)
		}
	}
	got, err := tr.PositionAt(150)
	if err != nil {
		t.Fatal(err)
	}
	if e := got.Sub(truth).Norm(); e > 0.8 {
		t.Errorf("static convergence error %.2f m", e)
	}
	// Filtered estimate must beat the raw fix noise.
	if u := tr.Uncertainty(); u > 0.8 {
		t.Errorf("posterior uncertainty %.2f not below fix σ", u)
	}
	// Velocity should be near zero.
	if v := tr.Velocity().Norm(); v > 0.15 {
		t.Errorf("phantom velocity %.2f m/s", v)
	}
}

func TestTrackerFollowsMovingDiver(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	tr := NewTracker(smoothCfg())
	vel := geom.Vec2{X: 0.4, Y: -0.2}
	for k := 0; k < 25; k++ {
		tt := float64(k) * 4
		fix := geom.Vec3{
			X: vel.X*tt + 0.8*rng.NormFloat64(),
			Y: vel.Y*tt + 0.8*rng.NormFloat64(),
			Z: 2,
		}
		if err := tr.Fix(tt, fix); err != nil {
			t.Fatal(err)
		}
	}
	// Velocity estimate near truth.
	v := tr.Velocity()
	if math.Abs(v.X-vel.X) > 0.15 || math.Abs(v.Y-vel.Y) > 0.15 {
		t.Errorf("velocity %+v, want %+v", v, vel)
	}
	// Extrapolation 6 s past the last fix tracks the motion.
	tLast := 24.0 * 4
	want := geom.Vec3{X: vel.X * (tLast + 6), Y: vel.Y * (tLast + 6), Z: 2}
	got, _ := tr.PositionAt(tLast + 6)
	if e := got.Sub(want).Norm(); e > 1.2 {
		t.Errorf("extrapolation error %.2f m", e)
	}
}

func TestTrackerBeatsRawFixesProperty(t *testing.T) {
	// Property: averaged over a long static track, filtered error is
	// smaller than raw per-fix error.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := NewTracker(smoothCfg())
		truth := geom.Vec3{X: rng.Float64() * 20, Y: rng.Float64() * 20, Z: 3}
		var rawErr, filtErr float64
		n := 25
		for k := 0; k < n; k++ {
			fix := geom.Vec3{
				X: truth.X + 0.8*rng.NormFloat64(),
				Y: truth.Y + 0.8*rng.NormFloat64(),
				Z: truth.Z,
			}
			if err := tr.Fix(float64(k)*5, fix); err != nil {
				return false
			}
			if k >= 5 { // after warm-up
				rawErr += fix.Sub(truth).Norm()
				got, _ := tr.PositionAt(float64(k) * 5)
				filtErr += got.Sub(truth).Norm()
			}
		}
		return filtErr < rawErr
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestSpeedClamp(t *testing.T) {
	tr := NewTracker(FilterConfig{ProcessAccel: 5, FixStd: 0.1, MaxSpeed: 1})
	// Fixes teleporting 10 m per second would imply 10 m/s.
	if err := tr.Fix(0, geom.Vec3{}); err != nil {
		t.Fatal(err)
	}
	if err := tr.Fix(1, geom.Vec3{X: 10}); err != nil {
		t.Fatal(err)
	}
	if v := tr.Velocity().Norm(); v > 1.0+1e-9 {
		t.Errorf("speed clamp failed: %.2f m/s", v)
	}
}

func TestGroupTracker(t *testing.T) {
	g := NewGroupTracker(smoothCfg())
	rng := rand.New(rand.NewSource(3))
	truths := []geom.Vec3{{X: 0, Y: 0, Z: 2}, {X: 5, Y: 2, Z: 3}, {X: 12, Y: -4, Z: 1}}
	for k := 0; k < 25; k++ {
		fixes := make([]geom.Vec3, len(truths))
		for i, tru := range truths {
			fixes[i] = geom.Vec3{
				X: tru.X + 0.5*rng.NormFloat64(),
				Y: tru.Y + 0.5*rng.NormFloat64(),
				Z: tru.Z,
			}
		}
		if err := g.Fix(float64(k)*5, fixes); err != nil {
			t.Fatal(err)
		}
	}
	got := g.PositionsAt(125)
	if len(got) != 3 {
		t.Fatalf("tracked %d divers", len(got))
	}
	for i, tru := range truths {
		if e := got[i].Sub(tru).Norm(); e > 0.8 {
			t.Errorf("diver %d error %.2f m", i, e)
		}
	}
	if g.Tracker(0) == nil || g.Tracker(9) != nil {
		t.Error("Tracker() lookup wrong")
	}
}
