package depth

import (
	"math"
	"math/rand"
	"testing"
)

func TestSensorErrorStatistics(t *testing.T) {
	// Reproduce the Fig. 13b protocol: 0–9 m in 1 m steps, repeated
	// across devices, mean absolute error within the paper's bands.
	rng := rand.New(rand.NewSource(1))
	meanAbsErr := func(mk func(*rand.Rand) *Sensor) float64 {
		var sum float64
		var count int
		for dev := 0; dev < 30; dev++ {
			s := mk(rng)
			for d := 0.0; d <= 9; d++ {
				for rep := 0; rep < 5; rep++ {
					sum += math.Abs(s.Read(d, rng) - d)
					count++
				}
			}
		}
		return sum / float64(count)
	}
	watch := meanAbsErr(NewWatchGauge)
	phone := meanAbsErr(NewPhoneBarometer)
	if watch < 0.05 || watch > 0.30 {
		t.Errorf("watch mean error %.3f m, want ≈0.15", watch)
	}
	if phone < 0.25 || phone > 0.60 {
		t.Errorf("phone mean error %.3f m, want ≈0.42", phone)
	}
	if phone <= watch {
		t.Error("phone must be worse than the dive gauge")
	}
}

func TestSensorNeverNegative(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	s := NewPhoneBarometer(rng)
	s.BiasM = -2
	for i := 0; i < 100; i++ {
		if v := s.Read(0.1, rng); v < 0 {
			t.Fatalf("negative reading %g", v)
		}
	}
}

func TestQuantize(t *testing.T) {
	got, err := Quantize(7.33)
	if err != nil || math.Abs(got-7.4) > 1e-12 {
		t.Errorf("Quantize(7.33) = %g, %v", got, err)
	}
	got, err = Quantize(-0.5)
	if err != nil || got != 0 {
		t.Errorf("negative clamps to 0, got %g", got)
	}
	if _, err := Quantize(45); err == nil {
		t.Error("beyond 40 m should error")
	}
	if _, err := Quantize(math.NaN()); err == nil {
		t.Error("NaN should error")
	}
	// Resolution steps are exactly 0.2 m.
	a, _ := Quantize(3.0)
	b, _ := Quantize(3.19)
	if math.Abs(a-3.0) > 1e-12 || math.Abs(b-3.2) > 1e-12 {
		t.Errorf("steps: %g, %g", a, b)
	}
}
