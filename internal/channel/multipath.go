package channel

import (
	"math"
	"math/rand"
	"sort"

	"uwpos/internal/dsp"
	"uwpos/internal/geom"
)

// Tap is one arrival of the channel impulse response.
type Tap struct {
	DelaySec  float64 // propagation delay in seconds
	Amplitude float64 // signed linear amplitude (surface bounces flip sign)
	Surface   int     // number of surface reflections on this eigenray
	Bottom    int     // number of bottom reflections on this eigenray
}

// PathLen returns the unfolded ray length in metres given the sound speed.
func (t Tap) PathLen(c float64) float64 { return t.DelaySec * c }

// IsDirect reports whether the tap is the line-of-sight arrival.
func (t Tap) IsDirect() bool { return t.Surface == 0 && t.Bottom == 0 }

// ImpulseOptions tunes impulse-response synthesis.
type ImpulseOptions struct {
	MaxOrder         int     // maximum reflection order per boundary (default 3)
	DirectAttenuated float64 // extra linear gain on the direct ray (1 = clear; <1 models occlusion)
	// OccludeShallow, when true, applies DirectAttenuated to every
	// eigenray that never touches the bottom (direct and surface-only
	// bounces): the paper's "thick solid sheet" hangs in the upper water
	// column, so only bottom-interacting paths sneak underneath — which
	// is precisely what turns an occlusion into a +several-metre distance
	// outlier rather than a mere SNR loss (§3.2, Fig. 19a).
	OccludeShallow bool
	RefAmplitude   float64 // amplitude of the direct ray at 1 m (default 1)
}

func (o *ImpulseOptions) defaults() {
	if o.MaxOrder <= 0 {
		o.MaxOrder = 3
	}
	if o.DirectAttenuated == 0 {
		o.DirectAttenuated = 1
	}
	if o.RefAmplitude == 0 {
		o.RefAmplitude = 1
	}
}

// ImpulseResponse constructs the eigenray tap set between tx and rx using
// the method of images for an isovelocity waveguide bounded by the water
// surface (pressure-release, reflection coefficient −SurfaceLoss) and the
// bottom (coefficient +BottomLoss). For each image order m ≥ 0 the four
// classical vertical unfoldings are
//
//	d₁ = 2hm + (z_r − z_s)        m surface + m bottom bounces
//	d₂ = 2hm + (z_r + z_s)        m+? — surface-first family
//	d₃ = 2h(m+1) − (z_r + z_s)    bottom-first family
//	d₄ = 2h(m+1) − (z_r − z_s)    closing the order
//
// Amplitudes follow 1/L spherical spreading with Thorp absorption at the
// band centre, times the per-bounce boundary coefficients.
func (e *Environment) ImpulseResponse(tx, rx geom.Vec3, opts ImpulseOptions) []Tap {
	opts.defaults()
	h := e.BottomDepthM
	r := tx.HorizontalDist(rx)
	zs, zr := clamp(tx.Z, 0, h), clamp(rx.Z, 0, h)
	cMid := e.SoundSpeed((zs + zr) / 2)
	absDBPerM := ThorpAbsorptionDBPerKm(3000) / 1000

	var taps []Tap
	add := func(dz float64, surf, bot int) {
		l := math.Hypot(r, dz)
		if l < 0.1 {
			l = 0.1 // avoid the singularity for co-located devices
		}
		amp := opts.RefAmplitude / l
		amp *= math.Pow(10, -absDBPerM*l/20)
		amp *= math.Pow(e.SurfaceLoss, float64(surf)) * math.Pow(e.BottomLoss, float64(bot))
		if surf%2 == 1 {
			amp = -amp // pressure-release surface flips polarity
		}
		if surf == 0 && bot == 0 {
			amp *= opts.DirectAttenuated
		} else if opts.OccludeShallow && bot == 0 {
			amp *= opts.DirectAttenuated // sheet also blocks surface-only rays
		}
		if math.Abs(amp) < 1e-6 {
			return
		}
		taps = append(taps, Tap{DelaySec: l / cMid, Amplitude: amp, Surface: surf, Bottom: bot})
	}

	for m := 0; m <= opts.MaxOrder; m++ {
		hm := 2 * h * float64(m)
		add(hm+(zr-zs), m, m)
		add(hm+(zr+zs), m+1, m)
		add(2*h*float64(m+1)-(zr+zs), m, m+1)
		add(2*h*float64(m+1)-(zr-zs), m+1, m+1)
	}
	sort.Slice(taps, func(i, j int) bool { return taps[i].DelaySec < taps[j].DelaySec })
	return taps
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// DirectDelay returns the line-of-sight propagation delay in seconds.
func (e *Environment) DirectDelay(tx, rx geom.Vec3) float64 {
	c := e.SoundSpeed((tx.Z + rx.Z) / 2)
	return tx.Dist(rx) / c
}

// scatterTaps appends a diffuse exponential tail after each boundary tap,
// modelling rough-surface scattering and suspended-particle reverberation.
// The tail density and level come from the environment.
func (e *Environment) scatterTaps(taps []Tap, rng *rand.Rand) []Tap {
	if e.ScatterLevel <= 0 || e.ScatterSpreadMs <= 0 || rng == nil {
		return taps
	}
	spread := e.ScatterSpreadMs / 1000
	out := taps
	for _, t := range taps {
		if t.IsDirect() {
			continue
		}
		// A handful of diffuse arrivals per specular bounce.
		n := 2 + rng.Intn(3)
		for k := 0; k < n; k++ {
			extra := rng.ExpFloat64() * spread
			amp := t.Amplitude * e.ScatterLevel * math.Exp(-extra/spread) * (0.5 + rng.Float64())
			out = append(out, Tap{
				DelaySec:  t.DelaySec + extra,
				Amplitude: amp,
				Surface:   t.Surface,
				Bottom:    t.Bottom,
			})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].DelaySec < out[j].DelaySec })
	return out
}

// kernelTaps is the support of Render's windowed-sinc fractional-delay
// kernel.
const kernelTaps = 33

// Render adds the waveform wave, transmitted at sample index txStart of the
// destination timeline, into dst through the given taps at sample rate fs.
// Fractional tap delays are realized with a 33-tap windowed-sinc kernel, so
// sub-sample timing (needed by the 16 cm dual-mic geometry, ~4.7 samples
// apart at most) is preserved. Samples beyond len(dst) are dropped.
//
// Summation contract: taps render one after another, and every dst[j]
// receives a tap's terms (wave[i]·Amplitude)·kern[k] with the wave index i
// ascending — the kernel index k descending — each one rounded multiply of
// the pre-scaled sample by the kernel weight and one rounded add, in the
// order of the direct scatter loop (for each i, for each k: dst[i+k] +=).
// The kernel computes six consecutive outputs at a time in register
// accumulators seeded from dst, running all 33 terms into them before the
// store; outputs whose window is clipped by either end of the wave run the
// same order one at a time. Blocks are six wide, not eight: eight
// accumulators, their eight products and the kernel weight need 17 XMM
// registers where Go's amd64 ABI leaves 15, so two accumulators would go
// to the stack on every term. Zero wave samples are not skipped: their ±0
// products leave every value but −0 unchanged, and a dst that starts at +0
// never holds −0, since a rounded sum is −0 only when both operands are.
func Render(dst, wave []float64, taps []Tap, txStart int, fs float64) {
	var kern [kernelTaps]float64
	for _, tap := range taps {
		delay := tap.DelaySec * fs
		whole := int(math.Floor(delay))
		frac := delay - float64(whole)
		dsp.FractionalDelayTaps(kern[:], frac)
		renderTap(dst, wave, tap.Amplitude, &kern, txStart+whole-kernelTaps/2)
	}
}

// renderTile is the number of outputs, a multiple of the six-output
// block, whose pre-scaled wave samples renderTap stages on its stack at a
// time.
const renderTile = 510

// renderTap adds amp·wave through kern into dst, kern[0] landing at
// dst[base]: dst[j] += (wave[j-base-k]·amp)·kern[k] for every in-range k,
// descending.
func renderTap(dst, wave []float64, amp float64, kern *[kernelTaps]float64, base int) {
	const last = kernelTaps - 1
	lo := max(base, 0)
	hi := min(base+len(wave)+last, len(dst))
	// Outputs in [full, end) see all 33 terms; blocks of six cover as much
	// of that span as they can.
	full := min(max(base+last, lo), hi)
	end := min(max(base+len(wave), full), hi)
	var rk [kernelTaps]float64 // kern reversed: rk[m] pairs with wave[j-base-last+m]
	for k, kv := range kern {
		rk[last-k] = kv
	}
	j := lo
	for ; j < full; j++ {
		dst[j] = renderEdge(dst[j], wave, amp, kern, j-base)
	}
	// sw[m] = wave[j-base-last+m]·amp for the current tile of outputs.
	var sw [renderTile + last]float64
	for j+6 <= end {
		n := min(end-j, renderTile)
		n -= n % 6
		w := wave[j-base-last : j-base+n]
		t := sw[:len(w)]
		for m, v := range w {
			t[m] = v * amp
		}
		for b := 0; b < n; b += 6 {
			s := (*[kernelTaps + 5]float64)(sw[b:])
			d := (*[6]float64)(dst[j+b:])
			t0, t1, t2, t3, t4, t5 := d[0], d[1], d[2], d[3], d[4], d[5]
			for m, kv := range &rk {
				t0 += s[m] * kv
				t1 += s[m+1] * kv
				t2 += s[m+2] * kv
				t3 += s[m+3] * kv
				t4 += s[m+4] * kv
				t5 += s[m+5] * kv
			}
			d[0], d[1], d[2], d[3], d[4], d[5] = t0, t1, t2, t3, t4, t5
		}
		j += n
	}
	for ; j < hi; j++ {
		dst[j] = renderEdge(dst[j], wave, amp, kern, j-base)
	}
}

// renderEdge returns acc plus the terms (wave[q-k]·amp)·kern[k] of output
// offset q that fall inside wave, k descending.
func renderEdge(acc float64, wave []float64, amp float64, kern *[kernelTaps]float64, q int) float64 {
	for k := min(q, kernelTaps-1); k >= 0 && q-k < len(wave); k-- {
		sv := wave[q-k] * amp
		acc += sv * kern[k]
	}
	return acc
}

// RenderFast is Render with nearest-sample tap placement: one multiply-add
// per wave sample and tap instead of 33. Adequate when sub-sample timing is
// irrelevant (e.g. noise-floor studies).
func RenderFast(dst, wave []float64, taps []Tap, txStart int, fs float64) {
	for _, tap := range taps {
		shift := txStart + int(math.Round(tap.DelaySec*fs))
		for i, v := range wave {
			idx := shift + i
			if idx < 0 || idx >= len(dst) {
				continue
			}
			dst[idx] += v * tap.Amplitude
		}
	}
}

// AddNoise fills dst with the environment's ambient Gaussian noise plus
// Poisson-arriving impulsive bursts (bubbles, snapping shrimp, paddle
// strikes). The impulses are short decaying 2–4 kHz oscillations — exactly
// the "spiky noise" that defeats plain cross-correlation detection (§2.2.1).
func (e *Environment) AddNoise(dst []float64, fs float64, rng *rand.Rand) {
	for i := range dst {
		dst[i] += e.AmbientNoiseRMS * rng.NormFloat64()
	}
	if e.ImpulseRatePerS <= 0 || e.ImpulseAmplitude <= 0 {
		return
	}
	dur := float64(len(dst)) / fs
	n := poisson(rng, e.ImpulseRatePerS*dur)
	for k := 0; k < n; k++ {
		at := rng.Intn(len(dst))
		f := 2000 + 2000*rng.Float64()
		amp := e.ImpulseAmplitude * (0.5 + rng.Float64())
		decay := fs * (0.5e-3 + 2e-3*rng.Float64()) // 0.5–2.5 ms bursts
		for i := 0; i < int(4*decay); i++ {
			idx := at + i
			if idx >= len(dst) {
				break
			}
			t := float64(i)
			dst[idx] += amp * math.Exp(-t/decay) * math.Sin(2*math.Pi*f*t/fs)
		}
	}
}

func poisson(rng *rand.Rand, lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	// Knuth's method is fine for the small rates involved.
	l := math.Exp(-lambda)
	k := 0
	p := 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
		if k > 10000 {
			return k
		}
	}
}

// WithScatter returns the impulse response with the environment's diffuse
// scattering tail appended (deterministic given rng).
func (e *Environment) WithScatter(taps []Tap, rng *rand.Rand) []Tap {
	return e.scatterTaps(taps, rng)
}

// SurfaceJitter is a per-transmission draw of wave-induced delay and gain
// modulation, keyed by eigenray family (surface, bottom bounce counts).
// Drawing once per transmission/receiver and applying it to every
// microphone keeps the dual-mic geometry coherent, as the real 16 cm
// baseline would be under a common wave field.
type SurfaceJitter map[[2]int]jitterDraw

type jitterDraw struct {
	delaySec float64
	gain     float64
}

// DrawSurfaceJitter samples the channel's random state for one
// transmission over a link of the given range: wave-induced delay/gain
// modulation per surface family, plus a log-normal fade on the direct ray
// whose σ grows linearly with range (refraction and shadowing — the
// paper's long tail at 35–45 m).
func (e *Environment) DrawSurfaceJitter(rng *rand.Rand, maxOrder int, rangeM float64) SurfaceJitter {
	if rng == nil || (e.SurfaceJitterMs <= 0 && e.FadeSigmaDBAt45m <= 0) {
		return nil
	}
	sigma := e.SurfaceJitterMs / 1000
	out := make(SurfaceJitter)
	for s := 0; s <= maxOrder+1; s++ {
		for b := 0; b <= maxOrder+1; b++ {
			if s == 0 {
				continue // waves only touch surface-interacting rays
			}
			out[[2]int{s, b}] = jitterDraw{
				delaySec: sigma * math.Sqrt(float64(s)) * rng.NormFloat64(),
				gain:     clamp(1+0.25*float64(s)*rng.NormFloat64(), 0.3, 1.7),
			}
		}
	}
	if e.FadeSigmaDBAt45m > 0 && rangeM > 0 {
		sigmaDB := e.FadeSigmaDBAt45m * rangeM / 45
		fade := math.Pow(10, sigmaDB*rng.NormFloat64()/20)
		out[[2]int{0, 0}] = jitterDraw{gain: clamp(fade, 0.05, 3)}
	}
	return out
}

// Apply perturbs the given taps in place according to the draw and
// re-sorts them by delay. Direct rays are untouched.
func (j SurfaceJitter) Apply(taps []Tap) []Tap {
	if j == nil {
		return taps
	}
	for i := range taps {
		d, ok := j[[2]int{taps[i].Surface, taps[i].Bottom}]
		if !ok {
			continue
		}
		taps[i].DelaySec += d.delaySec
		if taps[i].DelaySec < 0 {
			taps[i].DelaySec = 0
		}
		taps[i].Amplitude *= d.gain
	}
	sort.Slice(taps, func(a, b int) bool { return taps[a].DelaySec < taps[b].DelaySec })
	return taps
}
