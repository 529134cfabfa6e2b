// Package engine is the deterministic worker-pool trial runner every
// Monte-Carlo evaluation in this repository is built on. A run fans N
// independent trials across a bounded set of workers; results come back in
// trial order, so callers see exactly what a serial loop would have
// produced, only faster.
//
// # Seeding contract
//
// Determinism across worker counts is the engine's core guarantee and
// rests on one rule: trial t of a run configured with seed S computes with
// its own *rand.Rand built as
//
//	rand.New(rand.NewSource(TrialSeed(S, t)))
//
// and must not touch any other source of randomness. TrialSeed mixes S and
// t through a SplitMix64 finalizer, so per-trial streams are decorrelated
// even for adjacent seeds and adjacent trial indices. Because the stream
// is a pure function of (S, t) — never of goroutine identity, scheduling
// order or worker count — a run with 1 worker and a run with 8 workers
// yield bit-identical results, and any single trial can be replayed in
// isolation for debugging.
//
// Trial functions receive their rng as an argument; anything they need to
// randomize (scenario draws, channel noise, sensor noise) must be driven
// by it, typically by threading it into sim.Config.Rng.
package engine

import (
	"context"
	"math/rand"
	"sync"
	"sync/atomic"
)

// Config tunes a run.
type Config struct {
	// Seed is the run's master seed; per-trial seeds derive from it via
	// TrialSeed. A zero seed is used as-is (callers normalize if they
	// want 0 to mean "default").
	Seed int64
	// Workers bounds concurrent trials. Zero or negative means
	// runtime.GOMAXPROCS(0).
	Workers int
}

// TrialSeed derives the RNG seed for one trial from the run seed: a
// SplitMix64 finalizer over seed + trialIndex. It is exported so callers
// can replay a single trial outside the engine, or derive decorrelated
// secondary streams (e.g. seed^salt) for post-processing randomness.
//
// The trial index is widened with explicit 64-bit arithmetic: shard
// fan-out replays trials on whatever host picked up the shard, so the
// seed stream must not depend on the platform word size (uint is 32 bits
// on 32-bit hosts, which would wrap trial+1 differently). Values are
// unchanged on 64-bit hosts, so pre-existing goldens still hold; see the
// pinned vector in TestTrialSeedPinned.
func TrialSeed(seed int64, trial int) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*(uint64(int64(trial))+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}

// Rand builds the canonical per-trial RNG for (seed, trial).
func Rand(seed int64, trial int) *rand.Rand {
	return rand.New(rand.NewSource(TrialSeed(seed, trial)))
}

// Run executes n trials of fn across the configured workers and returns
// the n results in trial order. Each invocation fn(t, rng) receives the
// trial index and that trial's private RNG per the package seeding
// contract.
//
// If ctx is cancelled, no new trials start; trials that never ran hold
// T's zero value and Run returns ctx.Err(). In-flight trials finish (they
// are CPU-bound and un-interruptible by design).
func Run[T any](ctx context.Context, cfg Config, n int, fn func(trial int, rng *rand.Rand) T) ([]T, error) {
	out := make([]T, n)
	if n == 0 {
		return out, ctx.Err()
	}
	workers := workerCount(cfg, n)
	if workers == 1 {
		// Serial fast path: no goroutines, no atomics — the reference
		// the parallel path must be indistinguishable from.
		for t := 0; t < n; t++ {
			if err := ctx.Err(); err != nil {
				return out, err
			}
			out[t] = fn(t, Rand(cfg.Seed, t))
		}
		return out, nil
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				t := int(next.Add(1) - 1)
				if t >= n || ctx.Err() != nil {
					return
				}
				out[t] = fn(t, Rand(cfg.Seed, t))
			}
		}()
	}
	wg.Wait()
	return out, ctx.Err()
}
