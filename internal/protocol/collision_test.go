package protocol

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"uwpos/internal/geom"
)

// The collision checker below is the oracle for the paper's guard
// condition T_guard > 2·τ_max: it verifies constructively that the slot
// times SlotTime hands out keep every packet apart at every receiver.

// Transmission is one scheduled packet in absolute time (leader TX = 0).
type Transmission struct {
	Device int
	StartS float64 // first sample leaves the speaker
	EndS   float64 // last sample leaves the speaker
}

// Collision reports two packets overlapping at some receiver.
type Collision struct {
	A, B     int     // transmitting devices
	Receiver int     // device that hears both at once
	OverlapS float64 // overlap duration at that receiver
}

// MaxRange returns the unambiguous ranging distance c·T_guard/2 implied by
// the guard interval (32 m at the paper's 42 ms and c = 1500 m/s).
func (p Params) MaxRange(c float64) float64 { return c * p.TGuard / 2 }

// Schedule derives the absolute transmission times of a full round for
// the given device positions, assuming every device hears the leader
// directly (the §2.3 base case): device i transmits at τ₀ᵢ + Δ0 + (i−1)Δ1.
func (p Params) Schedule(pos []geom.Vec3, c float64) ([]Transmission, error) {
	if len(pos) != p.N {
		return nil, fmt.Errorf("protocol: %d positions for N=%d", len(pos), p.N)
	}
	if c <= 0 {
		return nil, fmt.Errorf("protocol: non-positive sound speed")
	}
	out := make([]Transmission, 0, p.N)
	out = append(out, Transmission{Device: 0, StartS: 0, EndS: p.TPacket})
	for i := 1; i < p.N; i++ {
		tau := pos[0].Dist(pos[i]) / c
		start := tau + p.SlotTime(i)
		out = append(out, Transmission{Device: i, StartS: start, EndS: start + p.TPacket})
	}
	return out, nil
}

// FindCollisions checks whether any receiver hears two packets
// overlapping in time, given the geometry. The guard condition
// guarantees none within MaxRange; beyond it (e.g. divers past the 32 m
// design range) this exposes what happens when the guard is violated.
func (p Params) FindCollisions(pos []geom.Vec3, c float64) ([]Collision, error) {
	sched, err := p.Schedule(pos, c)
	if err != nil {
		return nil, err
	}
	var out []Collision
	for r := 0; r < p.N; r++ {
		type arrival struct {
			dev        int
			start, end float64
		}
		var arrs []arrival
		for _, tx := range sched {
			if tx.Device == r {
				continue
			}
			tau := pos[tx.Device].Dist(pos[r]) / c
			arrs = append(arrs, arrival{tx.Device, tx.StartS + tau, tx.EndS + tau})
		}
		sort.Slice(arrs, func(i, j int) bool { return arrs[i].start < arrs[j].start })
		for i := 1; i < len(arrs); i++ {
			prev, cur := arrs[i-1], arrs[i]
			if cur.start < prev.end {
				out = append(out, Collision{
					A: prev.dev, B: cur.dev, Receiver: r,
					OverlapS: prev.end - cur.start,
				})
			}
		}
	}
	return out, nil
}

func TestScheduleBaseCase(t *testing.T) {
	p := DefaultParams(3)
	pos := []geom.Vec3{{X: 0}, {X: 15}, {X: 30}}
	const c = 1500.0
	sched, err := p.Schedule(pos, c)
	if err != nil {
		t.Fatal(err)
	}
	if sched[0].StartS != 0 || math.Abs(sched[0].EndS-p.TPacket) > 1e-12 {
		t.Errorf("leader packet %+v", sched[0])
	}
	// Device 1: starts at τ (15/1500=10 ms) + Δ0.
	want := 0.01 + 0.6
	if math.Abs(sched[1].StartS-want) > 1e-9 {
		t.Errorf("device 1 start %g, want %g", sched[1].StartS, want)
	}
	// Errors.
	if _, err := p.Schedule(pos[:2], c); err == nil {
		t.Error("wrong position count should error")
	}
	if _, err := p.Schedule(pos, 0); err == nil {
		t.Error("zero sound speed should error")
	}
}

func TestNoCollisionsWithinDesignRange(t *testing.T) {
	// Any geometry within the paper's 32 m design range must be
	// collision-free under the default guard (T_guard = 42 ms > 2τ_max).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + int(uint(seed)%6)
		p := DefaultParams(n)
		const c = 1500.0
		limit := p.MaxRange(c) // 31.5 m
		pos := make([]geom.Vec3, n)
		for i := range pos {
			// Confine to a ball of diameter < limit around the leader.
			r := rng.Float64() * limit / 2
			ang := rng.Float64() * 2 * math.Pi
			pos[i] = geom.Vec3{X: r * math.Cos(ang), Y: r * math.Sin(ang), Z: rng.Float64() * 5}
		}
		cols, err := p.FindCollisions(pos, c)
		return err == nil && len(cols) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestCollisionsBeyondGuard(t *testing.T) {
	// Stretch the network far beyond the design range with a tiny guard.
	// A far early-slot device followed by a near late-slot device makes
	// their packets overlap at the leader: collisions need non-monotone
	// geometry (along a line with increasing range, arrival gaps never
	// shrink below Δ1).
	p := DefaultParams(4)
	p.TGuard = 0.001 // 1 ms guard ↔ 0.75 m design range
	const c = 1500.0
	pos := []geom.Vec3{{X: 0}, {X: 120}, {X: 5}, {X: 60}}
	cols, err := p.FindCollisions(pos, c)
	if err != nil {
		t.Fatal(err)
	}
	if len(cols) == 0 {
		t.Fatal("expected collisions with a 1 ms guard at 120 m spread")
	}
	for _, col := range cols {
		if col.OverlapS <= 0 {
			t.Errorf("non-positive overlap %+v", col)
		}
		if col.A == col.B {
			t.Errorf("self collision %+v", col)
		}
	}
}

func TestGuardSufficientFor(t *testing.T) {
	// The 42 ms default guard covers the paper's 32 m design range: two
	// devices 31.5 m apart at the far ends of a line never collide.
	p := DefaultParams(3)
	const c = 1500.0
	if got := p.MaxRange(c); math.Abs(got-31.5) > 1e-9 {
		t.Errorf("guard range %g", got)
	}
	pos := []geom.Vec3{{X: 0}, {X: 31.5}, {X: -31.5}}
	if cols, err := p.FindCollisions(pos, c); err != nil || len(cols) != 0 {
		t.Errorf("collisions %v, err %v at the design range", cols, err)
	}
}
