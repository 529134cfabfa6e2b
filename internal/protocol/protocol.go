// Package protocol implements the distributed timestamp protocol of §2.3:
// leader-initiated TDM slot scheduling that works when some devices cannot
// hear the leader, plus the two-way timestamp arithmetic that turns the
// recorded arrival times into pairwise distances — including the third-
// party recovery path for half-lost links.
package protocol

import (
	"fmt"
	"math"
)

// Params fixes the protocol timing. Defaults mirror §2.3's latency
// analysis: Δ0 = 600 ms, T_packet = 278 ms, T_guard = 42 ms, Δ1 = 320 ms.
type Params struct {
	Delta0  float64 // processing + audio I/O latency budget (s)
	TPacket float64 // message duration (s)
	TGuard  float64 // guard interval ≥ 2·τ_max (s)
	N       int     // number of devices including the leader
}

// DefaultParams returns the paper's constants for an N-device group.
func DefaultParams(n int) Params {
	return Params{Delta0: 0.600, TPacket: 0.278, TGuard: 0.042, N: n}
}

// Validate sanity-checks the parameters.
func (p Params) Validate() error {
	switch {
	case p.N < 2:
		return fmt.Errorf("protocol: need ≥ 2 devices, got %d", p.N)
	case p.Delta0 <= 0 || p.TPacket <= 0 || p.TGuard < 0:
		return fmt.Errorf("protocol: non-positive timing constants")
	}
	return nil
}

// Delta1 is the slot pitch T_packet + T_guard.
func (p Params) Delta1() float64 { return p.TPacket + p.TGuard }

// SlotTime returns device id's transmit time in a clock where the leader's
// message arrives at 0: Δ0 + (id−1)·Δ1. The leader itself (id 0) transmits
// at −... — callers never ask for id 0; it panics to catch misuse.
func (p Params) SlotTime(id int) float64 {
	if id <= 0 || id >= p.N {
		panic(fmt.Sprintf("protocol: slot for id %d of %d", id, p.N))
	}
	return p.Delta0 + float64(id-1)*p.Delta1()
}

// RoundTime is the worst-case protocol duration: Δ0 + (N−1)Δ1 when all
// devices hear the leader, twice the slot span when some must wrap
// (§2.3's latency analysis).
func (p Params) RoundTime(allInLeaderRange bool) float64 {
	if allInLeaderRange {
		return p.Delta0 + float64(p.N-1)*p.Delta1()
	}
	return p.Delta0 + 2*float64(p.N-1)*p.Delta1()
}

// SyncSource identifies what a device synchronized against.
type SyncSource struct {
	From   int  // device ID whose message set the local slot origin
	Missed bool // true when the wrap rule (N−j+i)Δ1 applied
}

// TransmitOffset computes when device i must transmit, as an offset after
// the first message it heard (from device j, j may be the leader 0):
//
//	j == 0:               Δ0 + (i−1)Δ1
//	j ≠ 0, (i−j)Δ1 > Δ0:  (i−j)Δ1
//	j ≠ 0 otherwise:      (N−j+i)Δ1   (missed own slot, wrap)
//
// Returns the offset and sync bookkeeping. Panics for invalid ids.
func (p Params) TransmitOffset(i, j int) (float64, SyncSource) {
	if i <= 0 || i >= p.N || j < 0 || j >= p.N || i == j {
		panic(fmt.Sprintf("protocol: TransmitOffset(%d, %d) with N=%d", i, j, p.N))
	}
	if j == 0 {
		return p.Delta0 + float64(i-1)*p.Delta1(), SyncSource{From: 0}
	}
	if float64(i-j)*p.Delta1() > p.Delta0 {
		return float64(i-j) * p.Delta1(), SyncSource{From: j}
	}
	return float64(p.N-j+i) * p.Delta1(), SyncSource{From: j, Missed: true}
}

// Table holds the recorded timestamps of one protocol round.
// T[i][j] is the local time at device i when the message from device j
// arrived at its microphone; T[i][i] is device i's own transmit time in
// its local clock (the paper ignores the self-loopback propagation).
// Missing observations are NaN.
type Table struct {
	N int
	T [][]float64
}

// NewTable creates an all-missing table for n devices.
func NewTable(n int) *Table {
	t := &Table{N: n, T: make([][]float64, n)}
	for i := range t.T {
		t.T[i] = make([]float64, n)
		for j := range t.T[i] {
			t.T[i][j] = math.NaN()
		}
	}
	return t
}

// Observe records an arrival (or own-transmission when i == j).
func (t *Table) Observe(i, j int, localTime float64) { t.T[i][j] = localTime }

// Has reports whether observation (i, j) exists.
func (t *Table) Has(i, j int) bool { return !math.IsNaN(t.T[i][j]) }

// Distances converts the table into pairwise distances (metres) with the
// two-way formula of §2.3:
//
//	D_ij = c/2 · [(Tⁱⱼ − Tⁱᵢ) − (Tʲⱼ − Tʲᵢ)]
//
// For pairs with only one direction observed it attempts third-party
// recovery through a device k whose distances to both i and j resolved in
// the two-way pass. Returns the distance matrix and a weight matrix with
// 1 for resolved links, 0 for unresolved.
func (t *Table) Distances(c float64) (d [][]float64, w [][]float64) {
	n := t.N
	d = make([][]float64, n)
	w = make([][]float64, n)
	for i := range d {
		d[i] = make([]float64, n)
		w[i] = make([]float64, n)
	}
	// Pass 1: two-way.
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if t.Has(i, j) && t.Has(i, i) && t.Has(j, j) && t.Has(j, i) {
				dist := c / 2 * ((t.T[i][j] - t.T[i][i]) - (t.T[j][j] - t.T[j][i]))
				if dist >= 0 {
					d[i][j], d[j][i] = dist, dist
					w[i][j], w[j][i] = 1, 1
				}
			}
		}
	}
	// Pass 2: third-party recovery for one-way pairs.
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if w[i][j] > 0 {
				continue
			}
			// Need exactly one direction i←j or j←i.
			var rxer, txer int
			switch {
			case t.Has(i, j) && t.Has(i, i):
				rxer, txer = i, j
			case t.Has(j, i) && t.Has(j, j):
				rxer, txer = j, i
			default:
				continue
			}
			dist, ok := t.recoverOneWay(rxer, txer, c, w, d)
			if ok && dist >= 0 {
				d[i][j], d[j][i] = dist, dist
				w[i][j], w[j][i] = 1, 1
			}
		}
	}
	return d, w
}

// recoverOneWay estimates the distance for a pair where only rxer heard
// txer. Through a helper k with resolved two-way distances to both ends,
// the unknown transmit-time difference between the pair cancels:
//
//	a_tx − a_rx = (Tʳᵏ − Tʳʳ) − (Tᵗᵏ − Tᵗᵗ) − (τ_rk − τ_tk)   ... (via k)
//	τ_rt = (Tʳᵗ − Tʳʳ) − (a_t − a_r)
func (t *Table) recoverOneWay(rxer, txer int, c float64, w, d [][]float64) (float64, bool) {
	for k := 0; k < t.N; k++ {
		if k == rxer || k == txer {
			continue
		}
		if w[rxer][k] <= 0 || w[txer][k] <= 0 {
			continue
		}
		if !(t.Has(rxer, k) && t.Has(rxer, rxer) && t.Has(txer, k) && t.Has(txer, txer)) {
			continue
		}
		tauRK := d[rxer][k] / c
		tauTK := d[txer][k] / c
		// Arrival of k at both ends, minus own TX time, gives
		// (a_k + τ_k· − a_·); difference isolates (a_t − a_r).
		// lhs = τ_rk − τ_tk + (a_t − a_r), so a_t − a_r = lhs − τ_rk + τ_tk.
		lhs := (t.T[rxer][k] - t.T[rxer][rxer]) - (t.T[txer][k] - t.T[txer][txer])
		atMinusAr := lhs - tauRK + tauTK
		tau := (t.T[rxer][txer] - t.T[rxer][rxer]) - atMinusAr
		return c * tau, true
	}
	return 0, false
}
