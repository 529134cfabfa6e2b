// Package sig constructs the acoustic waveforms the system transmits: the
// ZC-modulated OFDM ranging preamble (§2.2.1 of the paper), MFSK device-ID
// symbols, FSK payload tones, the self-calibration signal, and the chirp /
// FMCW waveforms used by the BeepBeep and CAT ranging baselines.
package sig

import (
	"fmt"
	"math"
	"math/cmplx"
)

// ZadoffChu returns the length-n Zadoff–Chu sequence with root u:
//
//	zc[k] = exp(-i·π·u·k·(k+1)/n)
//
// n should be odd (classically prime) and gcd(u, n) = 1 for the constant
// amplitude zero autocorrelation property. Panics on invalid parameters.
func ZadoffChu(u, n int) []complex128 {
	if n <= 0 {
		panic("sig: ZadoffChu length must be positive")
	}
	if u <= 0 || u >= n {
		panic(fmt.Sprintf("sig: ZadoffChu root %d out of range (0,%d)", u, n))
	}
	if gcd(u, n) != 1 {
		panic(fmt.Sprintf("sig: ZadoffChu root %d not coprime with %d", u, n))
	}
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		// Compute u·k·(k+1) mod 2n to keep the phase argument bounded.
		m := (int64(u) * int64(k) % int64(2*n)) * int64(k+1) % int64(2*n)
		out[k] = cmplx.Rect(1, -math.Pi*float64(m)/float64(n))
	}
	return out
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}
