package device

import (
	"math"
	"testing"

	"uwpos/internal/geom"
)

func TestCatalogValidates(t *testing.T) {
	for name, model := range map[string]func() *Model{
		"galaxy-s9": GalaxyS9, "pixel": Pixel, "oneplus": OnePlus, "watch-ultra": WatchUltra,
	} {
		m := model()
		if err := m.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if m.Name != name {
			t.Errorf("model %q reports name %q", name, m.Name)
		}
	}
}

func TestValidateRejects(t *testing.T) {
	bad := []*Model{
		{Name: "nomics", BandLowHz: 1, BandHighHz: 2},
		{Name: "raggy", MicOffsets: []geom.Vec3{{}}, RXSensitivity: []float64{1, 2}, MicNoiseRMS: []float64{1}, BandLowHz: 1, BandHighHz: 2},
		{Name: "band", MicOffsets: []geom.Vec3{{}}, RXSensitivity: []float64{1}, MicNoiseRMS: []float64{1}, BandLowHz: 5, BandHighHz: 5},
	}
	for _, m := range bad {
		if err := m.Validate(); err == nil {
			t.Errorf("%s should fail validation", m.Name)
		}
	}
}

func TestS9MicSeparation(t *testing.T) {
	// The paper uses d = 16 cm between the phone's bottom and top mics.
	if d := GalaxyS9().MicSeparation(); math.Abs(d-0.16) > 1e-9 {
		t.Errorf("S9 mic separation %g, want 0.16", d)
	}
	// Watch is compact: centimetres, an order of magnitude smaller.
	if d := WatchUltra().MicSeparation(); d > 0.05 {
		t.Errorf("watch mic separation %g too large", d)
	}
}

func TestDirectivityOrdering(t *testing.T) {
	o := Orientation{} // facing +x
	onAxis := o.DirectivityGain(geom.Vec3{X: 1})
	broadside := o.DirectivityGain(geom.Vec3{Y: 1})
	behind := o.DirectivityGain(geom.Vec3{X: -1})
	if !(onAxis > broadside && broadside > behind) {
		t.Errorf("directivity ordering broken: %g, %g, %g", onAxis, broadside, behind)
	}
	if math.Abs(onAxis-1) > 1e-12 {
		t.Errorf("on-axis gain %g, want 1", onAxis)
	}
	if behind <= 0 {
		t.Error("behind gain must stay positive (no perfect null)")
	}
}

func TestDirectivityAzimuthRotation(t *testing.T) {
	// Rotated 90°, the on-axis direction moves to +y.
	o := Orientation{AzimuthRad: math.Pi / 2}
	if g := o.DirectivityGain(geom.Vec3{Y: 1}); math.Abs(g-1) > 1e-12 {
		t.Errorf("rotated on-axis gain %g", g)
	}
}

func TestDirectivityFacingUp(t *testing.T) {
	// Polar 90°: axis points to the surface (−z).
	o := Orientation{PolarRad: math.Pi / 2}
	up := o.DirectivityGain(geom.Vec3{Z: -1})
	side := o.DirectivityGain(geom.Vec3{X: 1})
	if up <= side {
		t.Errorf("up-facing device should favour upward: %g vs %g", up, side)
	}
}

func TestMicWorldPositions(t *testing.T) {
	m := GalaxyS9()
	pos := geom.Vec3{X: 10, Y: 5, Z: 2}
	mics := m.MicWorldPositions(pos, Orientation{})
	if len(mics) != 2 {
		t.Fatal("mic count")
	}
	// Separation is rotation invariant.
	d0 := mics[0].Dist(mics[1])
	mics90 := m.MicWorldPositions(pos, Orientation{AzimuthRad: 1.23, PolarRad: 0.4})
	d1 := mics90[0].Dist(mics90[1])
	if math.Abs(d0-0.16) > 1e-9 || math.Abs(d1-0.16) > 1e-9 {
		t.Errorf("separations %g, %g; want 0.16", d0, d1)
	}
	// Azimuth rotation keeps depth unchanged.
	micsAz := m.MicWorldPositions(pos, Orientation{AzimuthRad: 2.1})
	for _, mp := range micsAz {
		if math.Abs(mp.Z-pos.Z) > 1e-12 {
			t.Error("azimuth rotation changed depth")
		}
	}
	// Polar tilt moves mic depth.
	micsTilt := m.MicWorldPositions(pos, Orientation{PolarRad: math.Pi / 2})
	if math.Abs(micsTilt[1].Z-pos.Z) < 1e-6 {
		t.Error("polar tilt should change the top-mic depth")
	}
}

func TestSpeakerWorldPosition(t *testing.T) {
	m := GalaxyS9()
	pos := geom.Vec3{X: 1, Y: 2, Z: 3}
	sp := m.SpeakerWorldPosition(pos, Orientation{})
	if math.Abs(sp.X-1.01) > 1e-12 || sp.Y != 2 || sp.Z != 3 {
		t.Errorf("speaker at %+v", sp)
	}
}

func TestModelsAreIndependentCopies(t *testing.T) {
	a := GalaxyS9()
	b := GalaxyS9()
	a.MicOffsets[0].X = 99
	if b.MicOffsets[0].X == 99 {
		t.Error("catalog returned shared state")
	}
	p := Pixel()
	if p.TXEfficiency == GalaxyS9().TXEfficiency {
		t.Error("pixel should differ from S9")
	}
}
