package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestVec3Basics(t *testing.T) {
	a := Vec3{1, 2, 3}
	b := Vec3{4, 6, 3}
	if got := a.Add(b); got != (Vec3{5, 8, 6}) {
		t.Errorf("Add = %+v", got)
	}
	if got := b.Sub(a); got != (Vec3{3, 4, 0}) {
		t.Errorf("Sub = %+v", got)
	}
	if got := a.Scale(2); got != (Vec3{2, 4, 6}) {
		t.Errorf("Scale = %+v", got)
	}
	if got := a.Dot(b); got != 4+12+9 {
		t.Errorf("Dot = %g", got)
	}
	if got := a.Dist(b); math.Abs(got-5) > 1e-12 {
		t.Errorf("Dist = %g", got)
	}
	if got := a.HorizontalDist(b); math.Abs(got-5) > 1e-12 {
		t.Errorf("HorizontalDist = %g", got)
	}
	if got := a.XY(); got != (Vec2{1, 2}) {
		t.Errorf("XY = %+v", got)
	}
}

func TestVec3Normalize(t *testing.T) {
	v := Vec3{3, 0, 4}.Normalize()
	if math.Abs(v.Norm()-1) > 1e-12 {
		t.Errorf("norm %g", v.Norm())
	}
	z := Vec3{}.Normalize()
	if z != (Vec3{}) {
		t.Error("zero vector should stay zero")
	}
}

func TestVec2RotateProperties(t *testing.T) {
	f := func(x, y, theta float64) bool {
		if math.IsNaN(x) || math.IsNaN(y) || math.IsNaN(theta) ||
			math.IsInf(x, 0) || math.IsInf(y, 0) || math.IsInf(theta, 0) {
			return true
		}
		x, y = math.Mod(x, 1e6), math.Mod(y, 1e6)
		theta = math.Mod(theta, 2*math.Pi)
		v := Vec2{x, y}
		r := v.Rotate(theta)
		// Rotation preserves length.
		if math.Abs(r.Norm()-v.Norm()) > 1e-6*(1+v.Norm()) {
			return false
		}
		// Rotating back recovers the original.
		back := r.Rotate(-theta)
		return math.Abs(back.X-x) < 1e-6*(1+math.Abs(x)) && math.Abs(back.Y-y) < 1e-6*(1+math.Abs(y))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestVec2Rotate90(t *testing.T) {
	v := Vec2{1, 0}.Rotate(math.Pi / 2)
	if math.Abs(v.X) > 1e-12 || math.Abs(v.Y-1) > 1e-12 {
		t.Errorf("rotate 90 = %+v", v)
	}
}

func TestCrossAndSide(t *testing.T) {
	// The sign of (b−a) × (p−a) tells which side of the directed line
	// a→b the point p lies on.
	a, b := Vec2{0, 0}, Vec2{1, 0}
	side := func(p Vec2) float64 { return b.Sub(a).Cross(p.Sub(a)) }
	if side(Vec2{0.5, 1}) <= 0 {
		t.Error("above the x-axis should be left (+)")
	}
	if side(Vec2{0.5, -1}) >= 0 {
		t.Error("below should be right (−)")
	}
	if side(Vec2{2, 0}) != 0 {
		t.Error("collinear should be 0")
	}
}

func TestReflectAcross(t *testing.T) {
	a, b := Vec2{0, 0}, Vec2{1, 0}
	p := Vec2{0.3, 0.7}
	r := ReflectAcross(p, a, b)
	if math.Abs(r.X-0.3) > 1e-12 || math.Abs(r.Y+0.7) > 1e-12 {
		t.Errorf("reflection = %+v", r)
	}
	// Reflecting twice is the identity.
	rr := ReflectAcross(r, a, b)
	if rr.Dist(p) > 1e-12 {
		t.Error("double reflection is not identity")
	}
	// Degenerate line returns the point unchanged.
	if got := ReflectAcross(p, a, a); got != p {
		t.Error("degenerate line should return p")
	}
}

func TestReflectPreservesDistancesToLine(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 50; i++ {
		a := Vec2{r.NormFloat64(), r.NormFloat64()}
		b := Vec2{r.NormFloat64(), r.NormFloat64()}
		if a.Dist(b) < 1e-6 {
			continue
		}
		p := Vec2{r.NormFloat64() * 10, r.NormFloat64() * 10}
		q := ReflectAcross(p, a, b)
		// Distances to both line anchor points are preserved.
		if math.Abs(q.Dist(a)-p.Dist(a)) > 1e-9 || math.Abs(q.Dist(b)-p.Dist(b)) > 1e-9 {
			t.Fatalf("reflection distorted distances at case %d", i)
		}
		// Side flips unless collinear.
		if b.Sub(a).Cross(p.Sub(a))*b.Sub(a).Cross(q.Sub(a)) > 0 {
			t.Fatalf("reflection kept the side at case %d", i)
		}
	}
}

func TestAngleConversions(t *testing.T) {
	if math.Abs(Deg2Rad(180)-math.Pi) > 1e-12 {
		t.Error("Deg2Rad")
	}
	if math.Abs(Rad2Deg(math.Pi/2)-90) > 1e-12 {
		t.Error("Rad2Deg")
	}
	if math.Abs(Vec2{0, 2}.Angle()-math.Pi/2) > 1e-12 {
		t.Error("Angle")
	}
}

func TestWithZ(t *testing.T) {
	v := Vec2{1, 2}.WithZ(3)
	if v != (Vec3{1, 2, 3}) {
		t.Errorf("WithZ = %+v", v)
	}
}
