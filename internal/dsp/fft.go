// Package dsp implements the signal-processing primitives the positioning
// system is built on: FFTs of arbitrary length, real-input transforms,
// correlation, filtering, windowing, resampling and peak analysis.
//
// Everything is written against float64/complex128 slices so the receiver
// pipeline can run allocation-free on hot paths: transforms draw scratch
// from the package pool, twiddle/bit-reversal tables and Bluestein chirp
// setups are cached package-wide per size, and correlation sessions
// reuse their emission buffers.
//
// Plan computes complex transforms of any length (power-of-two sizes on
// the shared cached twiddles, others via Bluestein), and RFFT real-input
// ones at half the cost. Correlation — the receiver's dominant workload —
// has one scan path: a Matcher holds a template and its spectra, cached
// once per block length and reused for every stream; a MatcherBank sets
// the overlap-save block grid for several templates; and a BankStream
// session, fed the stream in chunks of any size, computes every
// normalized correlation lag on one shared forward transform per block.
package dsp

import (
	"fmt"
	"math"
	"math/bits"
	"math/cmplx"
	"sync"
)

// IsPow2 reports whether n is a positive power of two.
func IsPow2(n int) bool { return n > 0 && n&(n-1) == 0 }

// NextPow2 returns the smallest power of two >= n. It panics for n <= 0
// and for n large enough to overflow an int.
func NextPow2(n int) int {
	if n <= 0 {
		panic("dsp: NextPow2 of non-positive length")
	}
	if IsPow2(n) {
		return n
	}
	c := bits.Len(uint(n))
	if c >= bits.UintSize-1 {
		panic(fmt.Sprintf("dsp: NextPow2(%d) overflows int", n))
	}
	return 1 << c
}

// fftPow2 is the shared power-of-two transform entry for complex128
// callers: it deinterleaves into the split-layout scratch (applying the
// kernel's digit-reversal as a fused gather), runs the SoA radix-4/2
// ladder (see fft_soa.go), and reinterleaves the natural-order result.
func fftPow2(x []complex128, inverse bool) {
	n := len(x)
	if n <= 1 {
		return
	}
	re := GetF64(n)
	im := GetF64(n)
	for i, p := range permFor(n) {
		v := x[p]
		re[i], im[i] = real(v), imag(v)
	}
	fftSoA(re, im, inverse)
	for i := range x {
		x[i] = complex(re[i], im[i])
	}
	PutF64(im)
	PutF64(re)
}

// bluestein is the immutable chirp setup for one non-power-of-two
// transform length: computed once, cached package-wide, and shared by
// every Plan of that length (the chirp FFT dominated NewPlan's cost when
// each caller rebuilt it).
type bluestein struct {
	m     int          // power-of-two convolution length (>= 2n-1)
	chirp []complex128 // b[k] = exp(+i*pi*k^2/n), k in [0,n)
	fb    []complex128 // FFT of zero-padded, wrapped conjugate chirp
}

var bluesteinCache sync.Map // length n -> *bluestein

func bluesteinFor(n int) *bluestein {
	if v, ok := bluesteinCache.Load(n); ok {
		return v.(*bluestein)
	}
	bs := &bluestein{m: NextPow2(2*n - 1)}
	bs.chirp = make([]complex128, n)
	for k := 0; k < n; k++ {
		// Use k^2 mod 2n to keep the angle argument small and exact.
		kk := (int64(k) * int64(k)) % int64(2*n)
		bs.chirp[k] = cmplx.Rect(1, math.Pi*float64(kk)/float64(n))
	}
	bs.fb = make([]complex128, bs.m)
	for k := 0; k < n; k++ {
		c := bs.chirp[k] // b[k]
		bs.fb[k] = c
		if k > 0 {
			bs.fb[bs.m-k] = c
		}
	}
	fftPow2(bs.fb, false)
	// A racing builder computes bit-identical tables, so either winner is
	// fine; LoadOrStore just keeps one alive.
	actual, _ := bluesteinCache.LoadOrStore(n, bs)
	return actual.(*bluestein)
}

// Plan performs repeated transforms of one fixed, arbitrary length. The
// Bluestein chirp setup is cached package-wide per length and the
// convolution scratch comes from the shared pool per call, so plans are
// cheap to create and safe for concurrent use.
type Plan struct {
	n  int        // transform length
	bs *bluestein // nil for power-of-two lengths
}

// NewPlan builds a transform plan for length n (n >= 1).
func NewPlan(n int) *Plan {
	if n <= 0 {
		panic("dsp: NewPlan length must be positive")
	}
	p := &Plan{n: n}
	if !IsPow2(n) {
		p.bs = bluesteinFor(n)
	}
	return p
}

// Forward computes the DFT of x in place. len(x) must equal the plan length.
func (p *Plan) Forward(x []complex128) { p.transform(x, false) }

// Inverse computes the inverse DFT of x in place (with 1/N scaling).
func (p *Plan) Inverse(x []complex128) { p.transform(x, true) }

func (p *Plan) transform(x []complex128, inverse bool) {
	if len(x) != p.n {
		panic(fmt.Sprintf("dsp: plan length %d, input length %d", p.n, len(x)))
	}
	if p.bs == nil { // power-of-two fast path
		fftPow2(x, inverse)
		if inverse {
			s := complex(1/float64(p.n), 0)
			for i := range x {
				x[i] *= s
			}
		}
		return
	}
	n, m := p.n, p.bs.m
	a := GetC128(m)
	defer PutC128(a)
	// Bluestein: X[k] = b*[k] * ( (x*b~) ⊛ b )[k] with b~[k] = conj(b[k]).
	// For the inverse transform run the forward machinery on conjugated
	// input and conjugate the result (DFT(conj(x))* = IDFT(x)*N).
	for i := 0; i < n; i++ {
		v := x[i]
		if inverse {
			v = cmplx.Conj(v)
		}
		a[i] = v * cmplx.Conj(p.bs.chirp[i])
	}
	fftPow2(a, false)
	for i := 0; i < m; i++ {
		a[i] *= p.bs.fb[i]
	}
	fftPow2(a, true)
	invM := complex(1/float64(m), 0)
	for k := 0; k < n; k++ {
		v := a[k] * invM * cmplx.Conj(p.bs.chirp[k])
		if inverse {
			v = cmplx.Conj(v) * complex(1/float64(n), 0)
		}
		x[k] = v
	}
}
