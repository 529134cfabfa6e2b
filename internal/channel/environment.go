package channel

import "fmt"

// Environment describes a water body and its acoustic character. The four
// presets correspond to the paper's evaluation sites (Fig. 10).
type Environment struct {
	Name string

	// Geometry.
	BottomDepthM float64 // water column depth (m); surface is z = 0
	ExtentM      float64 // usable horizontal extent (m), for placement checks

	// Water properties (Wilson's equation inputs).
	TempC       float64
	SalinityPPT float64

	// Boundary interaction per bounce.
	SurfaceLoss float64 // |reflection coefficient| at the surface (sign is −1)
	BottomLoss  float64 // reflection coefficient magnitude at the bottom

	// Noise character.
	AmbientNoiseRMS  float64 // Gaussian noise RMS relative to unit-amplitude TX at 1 m
	ImpulseRatePerS  float64 // Poisson rate of impulsive events (bubbles, snapping)
	ImpulseAmplitude float64 // peak amplitude of impulsive bursts

	// Scattering: fraction of bounce energy diffused into a dense tail.
	ScatterSpreadMs float64 // exponential delay-spread constant of the tail
	ScatterLevel    float64 // tail amplitude relative to its parent tap

	// SurfaceJitterMs is the 1σ random delay modulation per surface
	// bounce caused by waves (applied per transmission, shared across a
	// receiver's microphones). Outdoor sites have rougher surfaces.
	SurfaceJitterMs float64

	// FadeSigmaDBAt45m is the 1σ log-normal fade on the direct ray at a
	// 45 m range (refraction, shadowing by wave troughs, suspended
	// matter). It scales linearly with range — negligible at dive-buddy
	// distances, decisive at the 35–45 m edge where the paper's error
	// tail lives.
	FadeSigmaDBAt45m float64
}

// SoundSpeed returns the speed of sound for this environment at the given
// depth.
func (e *Environment) SoundSpeed(depthM float64) float64 {
	return SoundSpeed(e.TempC, e.SalinityPPT, depthM)
}

// Validate sanity-checks the environment.
func (e *Environment) Validate() error {
	switch {
	case e.BottomDepthM <= 0:
		return fmt.Errorf("channel: bottom depth %g must be positive", e.BottomDepthM)
	case e.SurfaceLoss < 0 || e.SurfaceLoss > 1:
		return fmt.Errorf("channel: surface loss %g out of [0,1]", e.SurfaceLoss)
	case e.BottomLoss < 0 || e.BottomLoss > 1:
		return fmt.Errorf("channel: bottom loss %g out of [0,1]", e.BottomLoss)
	case e.AmbientNoiseRMS < 0:
		return fmt.Errorf("channel: negative noise RMS")
	}
	return nil
}

// Pool returns the indoor swimming-pool environment: shallow (1–2.5 m),
// quiet, hard boundaries that reflect strongly.
func Pool() *Environment {
	return &Environment{
		Name:             "pool",
		BottomDepthM:     2.5,
		ExtentM:          23,
		TempC:            27,
		SalinityPPT:      0.5,
		SurfaceLoss:      0.95,
		BottomLoss:       0.85, // tiled bottom, highly reflective
		AmbientNoiseRMS:  0.0015,
		ImpulseRatePerS:  0.5,
		ImpulseAmplitude: 0.02,
		ScatterSpreadMs:  4,
		ScatterLevel:     0.25,
		SurfaceJitterMs:  0.05, // indoor pool: near-flat surface
		FadeSigmaDBAt45m: 0.5,
	}
}

// Dock returns the outdoor lake-dock environment: 9 m deep, ~50 m extent,
// moderate boat traffic and soft sediment bottom.
func Dock() *Environment {
	return &Environment{
		Name:             "dock",
		BottomDepthM:     9,
		ExtentM:          50,
		TempC:            15,
		SalinityPPT:      0.3,
		SurfaceLoss:      0.9,
		BottomLoss:       0.45, // mud/sediment absorbs
		AmbientNoiseRMS:  0.004,
		ImpulseRatePerS:  2,
		ImpulseAmplitude: 0.05,
		ScatterSpreadMs:  8,
		ScatterLevel:     0.35,
		SurfaceJitterMs:  0.30, // boat wakes and wind chop
		FadeSigmaDBAt45m: 6.0,
	}
}

// Viewpoint returns the park-waterfront environment: very shallow
// (1–1.5 m) so surface and bottom multipath arrive almost with the direct
// path.
func Viewpoint() *Environment {
	return &Environment{
		Name:             "viewpoint",
		BottomDepthM:     1.5,
		ExtentM:          40,
		TempC:            14,
		SalinityPPT:      0.3,
		SurfaceLoss:      0.9,
		BottomLoss:       0.6,
		AmbientNoiseRMS:  0.003,
		ImpulseRatePerS:  1.5,
		ImpulseAmplitude: 0.04,
		ScatterSpreadMs:  6,
		ScatterLevel:     0.4,
		SurfaceJitterMs:  0.25,
		FadeSigmaDBAt45m: 5.0,
	}
}

// Boathouse returns the busy fishing-dock environment: 5 m deep, people
// fishing and kayaking nearby — the noisiest site.
func Boathouse() *Environment {
	return &Environment{
		Name:             "boathouse",
		BottomDepthM:     5,
		ExtentM:          30,
		TempC:            16,
		SalinityPPT:      0.3,
		SurfaceLoss:      0.88,
		BottomLoss:       0.5,
		AmbientNoiseRMS:  0.006,
		ImpulseRatePerS:  4,
		ImpulseAmplitude: 0.08,
		ScatterSpreadMs:  8,
		ScatterLevel:     0.4,
		SurfaceJitterMs:  0.35, // the busiest surface: kayaks, casts
		FadeSigmaDBAt45m: 6.5,
	}
}

// ByName returns the preset environment with the given name, or an error.
func ByName(name string) (*Environment, error) {
	switch name {
	case "pool":
		return Pool(), nil
	case "dock":
		return Dock(), nil
	case "viewpoint":
		return Viewpoint(), nil
	case "boathouse":
		return Boathouse(), nil
	}
	return nil, fmt.Errorf("channel: unknown environment %q (want pool, dock, viewpoint or boathouse)", name)
}
