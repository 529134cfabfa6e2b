// Package faultinject is the deterministic chaos engine behind the
// uwposd robustness suite: a seed-driven decision source that service
// code consults at its failure-relevant points (durability writes, round
// execution), so tests can make a specific disaster happen on demand —
// or a reproducible storm of them happen at a seeded rate — without
// sleeping, without wall-clock dependence and without test-only branches
// in production code.
//
// Two triggering modes compose:
//
//   - Armed one-shots: FailNextWrite / Arm(fault, n) fire the next n
//     consultations of that fault class, then disarm. This is how a test
//     scripts "the snapshot write after round 3 fails".
//   - Seeded rates: Config gives each fault class a probability; the
//     injector draws from its own seeded RNG in consultation order, so a
//     single-threaded run replays the identical fault schedule for the
//     same seed. This is how the chaos suite brews storms.
//
// A nil *Injector is inert: every method is nil-safe and reports "no
// fault", so production wiring carries no conditionals and the cost of
// an unused hook is one pointer test.
package faultinject

import (
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// Fault enumerates the injectable fault classes.
type Fault int

const (
	// FaultWrite fails a durability write (snapshot persistence).
	FaultWrite Fault = iota
	// FaultRoundLatency stalls a round before execution.
	FaultRoundLatency
	// FaultDropAnchors forces a round down the no-anchors degraded path,
	// as if every link measurement came back unusable.
	FaultDropAnchors
	// FaultKill marks a kill point: the consulting layer abandons the
	// operation without committing state, emulating a crash at that
	// point (CI backs this with a real kill -9).
	FaultKill
	numFaults
)

var faultNames = [...]string{"write", "round-latency", "drop-anchors", "kill"}

func (f Fault) String() string {
	if f < 0 || int(f) >= len(faultNames) {
		return fmt.Sprintf("fault(%d)", int(f))
	}
	return faultNames[f]
}

// Config sets the seeded-rate half of an injector. Rates are
// probabilities in [0, 1] per consultation; zero disables that class.
type Config struct {
	// Seed drives the fault schedule; the same seed and consultation
	// order replay the same faults.
	Seed int64

	WriteErrorRate   float64
	RoundLatencyRate float64
	DropAnchorsRate  float64
	KillRate         float64

	// RoundLatency is the stall per fired FaultRoundLatency
	// (default 50 ms).
	RoundLatency time.Duration
}

// Injector decides faults. Safe for concurrent use; decisions are
// globally ordered by an internal mutex, so determinism holds whenever
// the consultation order is deterministic (single-threaded tests, or
// per-class counters in concurrent ones).
type Injector struct {
	mu    sync.Mutex
	cfg   Config
	rng   *rand.Rand
	armed [numFaults]int
	fired [numFaults]int64
}

// New builds an injector from cfg. All-zero rates give a purely
// armed-mode injector.
func New(cfg Config) *Injector {
	if cfg.RoundLatency == 0 {
		cfg.RoundLatency = 50 * time.Millisecond
	}
	return &Injector{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// Arm schedules the next n consultations of fault f to fire.
func (in *Injector) Arm(f Fault, n int) {
	in.mu.Lock()
	in.armed[f] += n
	in.mu.Unlock()
}

// FailNextWrite arms one FaultWrite — the canonical "the next snapshot
// write fails" script.
func (in *Injector) FailNextWrite() { in.Arm(FaultWrite, 1) }

// Fired reports how many times fault f has fired.
func (in *Injector) Fired(f Fault) int64 {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.fired[f]
}

// decide consumes one consultation of f: armed one-shots fire first,
// then the seeded rate draws. Exactly one RNG draw happens per rated
// consultation, keeping the schedule a pure function of (seed, order).
func (in *Injector) decide(f Fault, rate float64) bool {
	if in == nil {
		return false
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.armed[f] > 0 {
		in.armed[f]--
		in.fired[f]++
		return true
	}
	if rate > 0 && in.rng.Float64() < rate {
		in.fired[f]++
		return true
	}
	return false
}

// WriteError returns the injected error for a durability write named op,
// or nil. Nil-safe.
func (in *Injector) WriteError(op string) error {
	if in == nil {
		return nil
	}
	if in.decide(FaultWrite, in.cfg.WriteErrorRate) {
		return fmt.Errorf("faultinject: injected %s failure on %s", FaultWrite, op)
	}
	return nil
}

// RoundLatency returns the stall to apply before executing a round
// (zero when no fault fires). Nil-safe.
func (in *Injector) RoundLatency() time.Duration {
	if in == nil || !in.decide(FaultRoundLatency, in.cfg.RoundLatencyRate) {
		return 0
	}
	return in.cfg.RoundLatency
}

// DropAnchors reports whether this round loses all its anchors. Nil-safe.
func (in *Injector) DropAnchors() bool {
	if in == nil {
		return false
	}
	return in.decide(FaultDropAnchors, in.cfg.DropAnchorsRate)
}

// Kill reports whether to emulate a crash at the named point: the caller
// abandons the operation without committing state. Nil-safe.
func (in *Injector) Kill(point string) bool {
	if in == nil {
		return false
	}
	_ = point
	return in.decide(FaultKill, in.cfg.KillRate)
}
