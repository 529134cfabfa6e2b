// Package depth models the depth sensing of §3.1: phone barometers in
// waterproof pouches (depth from hydrostatic pressure, h = (P − P₀)/(ρg))
// and the dedicated dive-gauge of the smartwatch, as readings of the true
// depth with the error statistics measured in the paper (watch
// 0.15±0.11 m, phone 0.42±0.18 m).
package depth

import (
	"fmt"
	"math"
	"math/rand"
)

// Sensor simulates a depth sensor with bias and noise, reproducing the
// Fig. 13b error statistics.
type Sensor struct {
	// BiasM is a per-unit constant offset (drawn once per device).
	BiasM float64
	// NoiseStdM is per-reading Gaussian noise.
	NoiseStdM float64
	// ScaleErr is a multiplicative error (1 + ε) on true depth.
	ScaleErr float64
	// QuantizeM rounds readings (0 disables).
	QuantizeM float64
}

// NewWatchGauge returns an Apple-Watch-Ultra-class dive gauge: the paper
// measured 0.15 ± 0.11 m error across 0–9 m.
func NewWatchGauge(rng *rand.Rand) *Sensor {
	return &Sensor{
		BiasM:     0.10 * rng.NormFloat64(),
		NoiseStdM: 0.08,
		ScaleErr:  1 + 0.005*rng.NormFloat64(),
		QuantizeM: 0.01,
	}
}

// NewPhoneBarometer returns a pouch-enclosed phone pressure sensor: the
// pouch's trapped air pocket adds bias and the barometer is not built for
// water, giving the paper's 0.42 ± 0.18 m error.
func NewPhoneBarometer(rng *rand.Rand) *Sensor {
	return &Sensor{
		BiasM:     0.35 + 0.15*rng.NormFloat64(),
		NoiseStdM: 0.12,
		ScaleErr:  1 + 0.02*rng.NormFloat64(),
		QuantizeM: 0.01,
	}
}

// Read returns a simulated measurement of the true depth.
func (s *Sensor) Read(trueDepthM float64, rng *rand.Rand) float64 {
	v := trueDepthM*s.ScaleErr + s.BiasM + s.NoiseStdM*rng.NormFloat64()
	if s.QuantizeM > 0 {
		v = math.Round(v/s.QuantizeM) * s.QuantizeM
	}
	if v < 0 {
		v = 0
	}
	return v
}

// Quantize rounds a depth to the 0.2 m protocol resolution (§2.4) and
// clamps to the representable [0, 40] m range.
func Quantize(depthM float64) (float64, error) {
	if math.IsNaN(depthM) {
		return 0, fmt.Errorf("depth: NaN reading")
	}
	if depthM < 0 {
		depthM = 0
	}
	if depthM > 40 {
		return 40, fmt.Errorf("depth: %g m beyond the 40 m dive limit", depthM)
	}
	return math.Round(depthM/0.2) * 0.2, nil
}
