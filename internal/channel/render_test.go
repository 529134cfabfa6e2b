package channel

import (
	"math"
	"math/rand"
	"testing"

	"uwpos/internal/dsp"
	"uwpos/internal/geom"
	"uwpos/internal/kerneltest"
)

// renderRef is the direct scatter loop Render ran before the blocked
// kernel (wave index outer, kernel index inner, zero samples skipped),
// kept as the reference for Render's summation contract.
func renderRef(dst, wave []float64, taps []Tap, txStart int, fs float64) {
	half := kernelTaps / 2
	kern := make([]float64, kernelTaps)
	for _, tap := range taps {
		delay := tap.DelaySec * fs
		whole := int(math.Floor(delay))
		frac := delay - float64(whole)
		dsp.FractionalDelayTaps(kern, frac)
		base := txStart + whole - half
		for i, v := range wave {
			if v == 0 {
				continue
			}
			sv := v * tap.Amplitude
			for k, kv := range kern {
				idx := base + i + k
				if idx < 0 || idx >= len(dst) {
					continue
				}
				dst[idx] += float64(sv * kv)
			}
		}
	}
}

// renderCase draws one randomized Render call: wave and destination
// lengths around the kernel, block and tile widths, start positions that
// put taps off either end of dst, silence runs, integer delays and
// several taps of mixed sign.
func renderCase(rng *rand.Rand, fs float64) (dst, wave []float64, taps []Tap, txStart int) {
	lengths := []int{0, 1, 7, 8, 9, 31, 32, 33, 34, 40, 41, 47, 100, 520, 545, 1500}
	wave = make([]float64, lengths[rng.Intn(len(lengths))]+rng.Intn(3))
	for i := range wave {
		wave[i] = rng.NormFloat64()
	}
	if len(wave) > 4 && rng.Intn(2) == 0 {
		a := rng.Intn(len(wave))
		for i := a; i < min(len(wave), a+1+rng.Intn(80)); i++ {
			wave[i] = 0
		}
	}
	dst = make([]float64, lengths[rng.Intn(len(lengths))]+rng.Intn(600))
	if rng.Intn(2) == 0 {
		for i := range dst {
			dst[i] = rng.NormFloat64()
		}
	}
	txStart = rng.Intn(len(dst)+len(wave)+200) - len(wave) - 100
	taps = make([]Tap, 1+rng.Intn(5))
	for i := range taps {
		delay := 60 * rng.Float64()
		if rng.Intn(3) == 0 {
			delay = math.Floor(delay) // frac = 0
		}
		taps[i] = Tap{DelaySec: delay / fs, Amplitude: 2*rng.Float64() - 1}
	}
	return dst, wave, taps, txStart
}

// TestRenderMatchesReference: random Render calls (renderCase) are
// bit-identical to the scatter loop. Then, for full-window output counts
// around every AVX2 block edge (15–49) and the tile edges, with the wave
// and dst holding special values, one tap rendered into a dst at an odd
// offset of a guarded buffer: every output matches, with dst reaching
// past the wave's tail, ending where the full windows do, and cutting
// them short, and no value outside dst changes. Both block paths run.
func TestRenderMatchesReference(t *testing.T) {
	kerneltest.ForEachPath(t, dsp.HasAVX2(), renderMatchesReference)
}

func renderMatchesReference(t *testing.T, avx2 bool) {
	const fs = 44100.0
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 3000; trial++ {
		dst, wave, taps, txStart := renderCase(rng, fs)
		want := append([]float64(nil), dst...)
		renderRef(want, wave, taps, txStart, fs)
		render(dst, wave, taps, txStart, fs, avx2)
		for i := range dst {
			if math.Float64bits(dst[i]) != math.Float64bits(want[i]) {
				t.Fatalf("trial %d (wave %d, dst %d, txStart %d, %d taps): sample %d: %g != %g",
					trial, len(wave), len(dst), txStart, len(taps), i, dst[i], want[i])
			}
		}
	}

	const last = kernelTaps - 1
	counts := []int{15, 16, 17, 31, 32, 33, 47, 48, 49,
		renderTile - 15, renderTile - 14, renderTile - 1, renderTile, renderTile + 1, 2*renderTile + 16}
	for _, n := range counts {
		for _, tail := range []int{last, 0, -1 - rng.Intn(8)} {
			for _, off := range []int{1, 3} {
				wave := make([]float64, n+last)
				for i := range wave {
					wave[i] = rng.NormFloat64()
				}
				kerneltest.Sprinkle(rng, wave)
				// The tap lands kern[0] at dst[0], so outputs last … last+n−1
				// see every term; tail is where dst ends relative to them.
				dst, intact := kerneltest.Guarded(off, len(wave)+tail)
				for i := range dst {
					dst[i] = rng.NormFloat64()
				}
				kerneltest.Sprinkle(rng, dst)
				for i, v := range dst {
					if v == 0 {
						dst[i] = 0 // renderRef skips zero samples, so it matches Render only on a dst without −0
					}
				}
				taps := []Tap{{DelaySec: (kernelTaps/2 + rng.Float64()) / fs, Amplitude: 2*rng.Float64() - 1}}
				want := append([]float64(nil), dst...)
				renderRef(want, wave, taps, 0, fs)
				render(dst, wave, taps, 0, fs, avx2)
				for i := range dst {
					if math.Float64bits(dst[i]) != math.Float64bits(want[i]) {
						t.Fatalf("%d outputs, tail %d, offset %d: sample %d: %g != %g", n, tail, off, i, dst[i], want[i])
					}
				}
				if !intact() {
					t.Fatalf("%d outputs, tail %d, offset %d: a value outside dst changed", n, tail, off)
				}
			}
		}
	}
}

// TestRenderLongWave spans several stack tiles with the dock round's mean
// wave length and a multipath tap set, on both block paths.
func TestRenderLongWave(t *testing.T) {
	const fs = 44100.0
	rng := rand.New(rand.NewSource(2))
	wave := make([]float64, 17848)
	for i := range wave {
		wave[i] = rng.NormFloat64()
	}
	taps := Dock().ImpulseResponse(geom.Vec3{Z: 2}, geom.Vec3{X: 12, Z: 3}, ImpulseOptions{})
	kerneltest.ForEachPath(t, dsp.HasAVX2(), func(t *testing.T, avx2 bool) {
		for _, txStart := range []int{-9000, 0, 1234, 30000} {
			got := make([]float64, 40000)
			want := make([]float64, len(got))
			render(got, wave, taps, txStart, fs, avx2)
			renderRef(want, wave, taps, txStart, fs)
			for i := range got {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("txStart %d: sample %d: %g != %g", txStart, i, got[i], want[i])
				}
			}
		}
	})
}

func TestRenderAllocatesNothing(t *testing.T) {
	const fs = 44100.0
	wave := make([]float64, 4096)
	for i := range wave {
		wave[i] = math.Sin(float64(i) / 7)
	}
	dst := make([]float64, 8192)
	taps := []Tap{{DelaySec: 12.3 / fs, Amplitude: 0.5}, {DelaySec: 40.7 / fs, Amplitude: -0.2}}
	if a := testing.AllocsPerRun(20, func() { Render(dst, wave, taps, 100, fs) }); a != 0 {
		t.Fatalf("Render allocates %v times per call, want 0", a)
	}
}

// BenchmarkRender is the dock round's mean Render call: one fractional
// tap over a 17,848-sample message wave.
func BenchmarkRender(b *testing.B) {
	const fs = 44100.0
	rng := rand.New(rand.NewSource(1))
	wave := make([]float64, 17848)
	for i := range wave {
		wave[i] = rng.NormFloat64()
	}
	dst := make([]float64, 1<<15)
	taps := []Tap{{DelaySec: 0.37 / fs, Amplitude: 0.9}}
	b.SetBytes(int64(8 * len(wave)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Render(dst, wave, taps, 5000, fs)
	}
}
