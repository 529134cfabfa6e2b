package channel

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"uwpos/internal/geom"
)

func TestSoundSpeedWilson(t *testing.T) {
	// At T=0, S=35, D=0 Wilson's equation gives exactly 1449.
	if c := SoundSpeed(0, 35, 0); math.Abs(c-1449) > 1e-9 {
		t.Errorf("c(0,35,0) = %g, want 1449", c)
	}
	// Warmer water is faster.
	if SoundSpeed(20, 35, 0) <= SoundSpeed(5, 35, 0) {
		t.Error("sound speed should increase with temperature")
	}
	// Deeper water is faster.
	if SoundSpeed(10, 35, 100) <= SoundSpeed(10, 35, 0) {
		t.Error("sound speed should increase with depth")
	}
	// Saltier water is faster.
	if SoundSpeed(10, 35, 0) <= SoundSpeed(10, 5, 0) {
		t.Error("sound speed should increase with salinity")
	}
	// Typical fresh lake water ~15°C: around 1465-1475 m/s.
	c := SoundSpeed(15, 0.3, 2)
	if c < 1400 || c > 1500 {
		t.Errorf("lake sound speed %g outside plausible range", c)
	}
}

func TestThorpAbsorptionMonotoneInBand(t *testing.T) {
	prev := 0.0
	for f := 500.0; f <= 20000; f *= 2 {
		a := ThorpAbsorptionDBPerKm(f)
		if a <= prev {
			t.Errorf("absorption not increasing at %g Hz: %g <= %g", f, a, prev)
		}
		prev = a
	}
	// Band-centre value should be well under 1 dB/km.
	if a := ThorpAbsorptionDBPerKm(3000); a > 1 {
		t.Errorf("3 kHz absorption %g dB/km unexpectedly high", a)
	}
}

func TestEnvironmentPresets(t *testing.T) {
	for _, name := range []string{"pool", "dock", "viewpoint", "boathouse"} {
		env, err := ByName(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := env.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if env.Name != name {
			t.Errorf("preset %q reports name %q", name, env.Name)
		}
	}
	if _, err := ByName("atlantis"); err == nil {
		t.Error("unknown environment should error")
	}
}

func TestEnvironmentValidateRejects(t *testing.T) {
	bad := []*Environment{
		{BottomDepthM: 0},
		{BottomDepthM: 5, SurfaceLoss: 1.5},
		{BottomDepthM: 5, BottomLoss: -0.1},
		{BottomDepthM: 5, AmbientNoiseRMS: -1},
	}
	for i, e := range bad {
		if err := e.Validate(); err == nil {
			t.Errorf("case %d should fail", i)
		}
	}
}

func TestImpulseResponseDirectFirst(t *testing.T) {
	env := Dock()
	tx := geom.Vec3{X: 0, Y: 0, Z: 2.5}
	rx := geom.Vec3{X: 20, Y: 0, Z: 2.5}
	taps := env.ImpulseResponse(tx, rx, ImpulseOptions{})
	if len(taps) == 0 {
		t.Fatal("no taps")
	}
	if !taps[0].IsDirect() {
		t.Fatalf("first tap is not direct: %+v", taps[0])
	}
	// Direct delay should match distance / c.
	c := env.SoundSpeed(2.5)
	want := 20.0 / c
	if math.Abs(taps[0].DelaySec-want) > 1e-9 {
		t.Errorf("direct delay %g, want %g", taps[0].DelaySec, want)
	}
	// Direct tap should be the strongest.
	for _, tap := range taps[1:] {
		if math.Abs(tap.Amplitude) >= math.Abs(taps[0].Amplitude) {
			t.Errorf("reflection %+v stronger than direct", tap)
		}
	}
	// Delays must be sorted.
	for i := 1; i < len(taps); i++ {
		if taps[i].DelaySec < taps[i-1].DelaySec {
			t.Fatal("taps not sorted by delay")
		}
	}
}

func TestImpulseResponseSurfaceFlipsSign(t *testing.T) {
	env := Dock()
	tx := geom.Vec3{X: 0, Y: 0, Z: 1}
	rx := geom.Vec3{X: 10, Y: 0, Z: 1}
	taps := env.ImpulseResponse(tx, rx, ImpulseOptions{MaxOrder: 1})
	foundSurface := false
	for _, tap := range taps {
		if tap.Surface == 1 && tap.Bottom == 0 {
			foundSurface = true
			if tap.Amplitude >= 0 {
				t.Errorf("single surface bounce should be negative, got %g", tap.Amplitude)
			}
			// Path length must exceed the direct path.
			if tap.DelaySec <= taps[0].DelaySec {
				t.Error("surface bounce arrived before direct")
			}
		}
	}
	if !foundSurface {
		t.Fatal("no surface-only tap found")
	}
}

func TestImpulseResponseOcclusion(t *testing.T) {
	env := Dock()
	tx := geom.Vec3{X: 0, Y: 0, Z: 1.5}
	rx := geom.Vec3{X: 15, Y: 0, Z: 1.5}
	clear := env.ImpulseResponse(tx, rx, ImpulseOptions{})
	occ := env.ImpulseResponse(tx, rx, ImpulseOptions{DirectAttenuated: 0.05})
	if math.Abs(occ[0].Amplitude) > math.Abs(clear[0].Amplitude)*0.06 {
		t.Error("occlusion did not attenuate the direct path")
	}
	// With a strong occlusion the direct tap should no longer dominate.
	var maxAmp float64
	for _, tap := range occ {
		if a := math.Abs(tap.Amplitude); a > maxAmp {
			maxAmp = a
		}
	}
	if maxAmp == math.Abs(occ[0].Amplitude) {
		t.Error("expected a reflection to dominate under occlusion")
	}
}

func TestImpulseResponseShallowWaterDenser(t *testing.T) {
	// Shallow environments produce more significant taps within the same
	// delay spread window (the paper's viewpoint site).
	deep := Dock()
	shallow := Viewpoint()
	tx := geom.Vec3{X: 0, Y: 0, Z: 0.7}
	rx := geom.Vec3{X: 15, Y: 0, Z: 0.7}
	dt := deep.ImpulseResponse(tx, geom.Vec3{X: 15, Y: 0, Z: 4}, ImpulseOptions{MaxOrder: 3})
	st := shallow.ImpulseResponse(tx, rx, ImpulseOptions{MaxOrder: 3})
	// Count taps within 10 ms of the direct arrival.
	count := func(taps []Tap) int {
		n := 0
		for _, tap := range taps {
			if tap.DelaySec-taps[0].DelaySec < 0.010 && math.Abs(tap.Amplitude) > 0.001 {
				n++
			}
		}
		return n
	}
	if count(st) <= count(dt) {
		t.Errorf("shallow water (%d taps) should be denser than deep (%d)", count(st), count(dt))
	}
}

func TestTapHelpers(t *testing.T) {
	tap := Tap{DelaySec: 0.01, Amplitude: 0.5}
	if !tap.IsDirect() {
		t.Error("no-bounce tap should be direct")
	}
	if (Tap{Surface: 1}).IsDirect() {
		t.Error("bounced tap cannot be direct")
	}
}

func TestRenderPlacesDelayedCopy(t *testing.T) {
	const fs = 44100.0
	wave := []float64{1, 2, 3}
	dst := make([]float64, 2000)
	delay := 500.0 / fs // exactly 500 samples
	Render(dst, wave, []Tap{{DelaySec: delay, Amplitude: 2}}, 100, fs)
	// Peak of first sample's kernel lands at 100+500.
	if math.Abs(dst[600]-2) > 0.05 {
		t.Errorf("dst[600] = %g, want ~2", dst[600])
	}
	if math.Abs(dst[601]-4) > 0.1 {
		t.Errorf("dst[601] = %g, want ~4", dst[601])
	}
	// Energy far away must be negligible.
	if math.Abs(dst[1500]) > 1e-9 {
		t.Error("energy leaked far from the tap")
	}
}

func TestRenderFractionalDelaySubSample(t *testing.T) {
	// Two renders 0.4 samples apart: the cross-correlation peak between
	// them, parabolically interpolated, must sit at ~0.4 samples.
	const fs = 44100.0
	rng := rand.New(rand.NewSource(4))
	raw := make([]float64, 512)
	for i := range raw {
		raw[i] = rng.NormFloat64()
	}
	// Band-limit with a 9-sample moving average so the fractional-delay
	// kernel operates well inside its accurate band.
	wave := make([]float64, len(raw))
	for i := 4; i < len(raw)-4; i++ {
		var s float64
		for k := -4; k <= 4; k++ {
			s += raw[i+k]
		}
		wave[i] = s / 9
	}
	a := make([]float64, 1024)
	b := make([]float64, 1024)
	Render(a, wave, []Tap{{DelaySec: 300 / fs, Amplitude: 1}}, 0, fs)
	Render(b, wave, []Tap{{DelaySec: 300.4 / fs, Amplitude: 1}}, 0, fs)
	// Correlation of b against a at integer lags −2..2.
	corr := func(lag int) float64 {
		var s float64
		for i := 300; i < 900; i++ {
			if i+lag >= 0 && i+lag < len(b) {
				s += a[i] * b[i+lag]
			}
		}
		return s
	}
	rm, r0, rp := corr(1), corr(0), corr(-1) // b lags a, so peak near lag 0/-1
	// Parabolic vertex offset relative to lag 0 measured on the reversed
	// axis gives the sub-sample delay of b relative to a.
	den := rm - 2*r0 + rp
	if den == 0 {
		t.Fatal("flat correlation")
	}
	shift := -0.5 * (rm - rp) / den
	if math.Abs(shift-0.4) > 0.1 {
		t.Errorf("fractional shift %g, want 0.4", shift)
	}
}

func TestRenderFastMatchesRenderForIntegerDelays(t *testing.T) {
	const fs = 44100.0
	rng := rand.New(rand.NewSource(5))
	wave := make([]float64, 256)
	for i := range wave {
		wave[i] = rng.NormFloat64()
	}
	taps := []Tap{{DelaySec: 100 / fs, Amplitude: 0.7}, {DelaySec: 350 / fs, Amplitude: -0.3}}
	a := make([]float64, 2048)
	b := make([]float64, 2048)
	Render(a, wave, taps, 10, fs)
	RenderFast(b, wave, taps, 10, fs)
	// Compare energy and peak alignment (sinc kernel ripples slightly).
	var ea, eb float64
	for i := range a {
		ea += a[i] * a[i]
		eb += b[i] * b[i]
	}
	if math.Abs(ea-eb) > 0.02*eb {
		t.Errorf("energy mismatch %g vs %g", ea, eb)
	}
}

func TestAddNoiseStatistics(t *testing.T) {
	env := Boathouse()
	rng := rand.New(rand.NewSource(7))
	dst := make([]float64, 44100)
	env.AddNoise(dst, 44100, rng)
	var e float64
	for _, v := range dst {
		e += v * v
	}
	rms := math.Sqrt(e / float64(len(dst)))
	// RMS should be at least the ambient level (impulses only add).
	if rms < env.AmbientNoiseRMS*0.9 {
		t.Errorf("noise RMS %g below ambient %g", rms, env.AmbientNoiseRMS)
	}
	// Impulsive bursts should create outliers well above Gaussian range.
	var maxAbs float64
	for _, v := range dst {
		if a := math.Abs(v); a > maxAbs {
			maxAbs = a
		}
	}
	if maxAbs < 6*env.AmbientNoiseRMS {
		t.Errorf("no impulsive outliers: max %g vs ambient %g", maxAbs, env.AmbientNoiseRMS)
	}
}

func TestScatterAddsTail(t *testing.T) {
	env := Dock()
	tx := geom.Vec3{X: 0, Y: 0, Z: 2}
	rx := geom.Vec3{X: 10, Y: 0, Z: 3}
	base := env.ImpulseResponse(tx, rx, ImpulseOptions{MaxOrder: 2})
	rng := rand.New(rand.NewSource(9))
	withTail := env.WithScatter(base, rng)
	if len(withTail) <= len(base) {
		t.Errorf("scatter added no taps: %d vs %d", len(withTail), len(base))
	}
	for i := 1; i < len(withTail); i++ {
		if withTail[i].DelaySec < withTail[i-1].DelaySec {
			t.Fatal("scattered taps not sorted")
		}
	}
	// Direct tap must remain first and unmodified.
	if !withTail[0].IsDirect() || withTail[0].Amplitude != base[0].Amplitude {
		t.Error("scatter altered the direct tap")
	}
}

func TestDirectDelayProperty(t *testing.T) {
	env := Dock()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tx := geom.Vec3{X: rng.Float64() * 40, Y: rng.Float64() * 40, Z: rng.Float64() * 8}
		rx := geom.Vec3{X: rng.Float64() * 40, Y: rng.Float64() * 40, Z: rng.Float64() * 8}
		d := env.DirectDelay(tx, rx)
		// Distance recovered from delay must match geometry within float eps.
		c := env.SoundSpeed((tx.Z + rx.Z) / 2)
		return math.Abs(d*c-tx.Dist(rx)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestPoissonMeanProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const lambda = 4.0
	var sum int
	const trials = 2000
	for i := 0; i < trials; i++ {
		sum += poisson(rng, lambda)
	}
	mean := float64(sum) / trials
	if math.Abs(mean-lambda) > 0.2 {
		t.Errorf("poisson mean %g, want ~%g", mean, lambda)
	}
	if poisson(rng, 0) != 0 || poisson(rng, -1) != 0 {
		t.Error("non-positive lambda should give 0")
	}
}
