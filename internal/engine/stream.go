package engine

import (
	"context"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
)

// Streaming result delivery. Run collects all n results before the caller
// sees any of them — fine for small sweeps, but it pins O(n) result memory
// and delays aggregation until the slowest trial lands. Stream and
// StreamOrderedRange instead hand each result to a sink as soon as it is
// available, which is what lets online aggregators (stats.Welford,
// stats.Sketch) scale trial counts past memory.
//
// Both variants keep the package seeding contract: trial t computes with
// Rand(cfg.Seed, t), so the multiset of delivered (trial, result) pairs is
// identical for every worker count. What differs is delivery order:
//
//   - Stream delivers in completion order — arbitrary under parallelism.
//     Use it when the sink is order-independent (counters, sums over
//     commutative domains, per-trial side effects keyed by trial index).
//   - StreamOrderedRange delivers in trial order via a bounded reorder window,
//     so a sink observes exactly the sequence a serial loop would have
//     produced — order-sensitive aggregation (floating-point sums,
//     reservoir sampling) stays bit-identical at any worker count.
//
// In both cases sink calls are serialized (never concurrent) and happen on
// the calling goroutine, so sinks need no locking.

// workerCount normalizes cfg.Workers against n.
func workerCount(cfg Config, n int) int {
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	return workers
}

// Stream executes n trials of fn across the configured workers, delivering
// each result to sink as soon as the trial completes. Delivery order is
// arbitrary under parallelism; calls to sink are serialized on the calling
// goroutine. If ctx is cancelled, no new trials start, in-flight trials
// finish and are still delivered, and Stream returns ctx.Err().
func Stream[T any](ctx context.Context, cfg Config, n int, fn func(trial int, rng *rand.Rand) T, sink func(trial int, v T)) error {
	if n <= 0 {
		return ctx.Err()
	}
	workers := workerCount(cfg, n)
	if workers == 1 {
		// Serial fast path: trial order, no goroutines — the reference
		// sequence StreamOrderedRange must be indistinguishable from.
		for t := 0; t < n; t++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			sink(t, fn(t, Rand(cfg.Seed, t)))
		}
		return nil
	}
	type item struct {
		t int
		v T
	}
	ch := make(chan item, workers)
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
				ch <- item{t: t, v: fn(t, Rand(cfg.Seed, t))}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(ch)
	}()
	for it := range ch {
		sink(it.t, it.v)
	}
	return ctx.Err()
}

// StreamOrderedRange is Stream with in-order delivery over the half-open
// trial span [lo, hi): sink(t, v) calls arrive strictly in trial order
// lo, lo+1, …, hi-1. A reorder window of a few times the worker count
// buffers results that complete ahead of a slower earlier trial; workers
// stall rather than run unboundedly ahead, so buffered results never
// exceed the window regardless of per-trial cost variance. On
// cancellation the sink has received a (possibly empty) prefix of the
// span and StreamOrderedRange returns ctx.Err().
//
// Trial indices are global: trial t still computes with Rand(cfg.Seed, t),
// so a span's results are bit-identical to the same trials of a full run
// — the primitive behind shard fan-out (each shard runs its contiguous
// span of the global trial sequence) and checkpoint/resume (restart from
// the first undelivered trial).
func StreamOrderedRange[T any](ctx context.Context, cfg Config, lo, hi int, fn func(trial int, rng *rand.Rand) T, sink func(trial int, v T)) error {
	n := hi - lo
	if n <= 0 {
		return ctx.Err()
	}
	workers := workerCount(cfg, n)
	if workers == 1 {
		for t := lo; t < hi; t++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			sink(t, fn(t, Rand(cfg.Seed, t)))
		}
		return nil
	}
	window := 4 * workers
	type item struct {
		t int
		v T
	}
	ch := make(chan item, window)
	// Credits bound claimed-but-undelivered trials to the window. A worker
	// acquires a credit *before* claiming a trial index, so indices are
	// claimed contiguously and the oldest undelivered trial always holds a
	// credit — it is in flight or buffered, never starved, so delivery
	// always progresses.
	credits := make(chan struct{}, window)
	for i := 0; i < window; i++ {
		credits <- struct{}{}
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				select {
				case <-ctx.Done():
					return
				case <-credits:
				}
				t := lo + int(next.Add(1)-1)
				if t >= hi {
					return
				}
				ch <- item{t: t, v: fn(t, Rand(cfg.Seed, t))}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(ch)
	}()
	// Reorder ring: slot t%window holds trial t until its turn.
	buf := make([]T, window)
	filled := make([]bool, window)
	deliver := lo
	for it := range ch {
		buf[it.t%window] = it.v
		filled[it.t%window] = true
		for deliver < hi && filled[deliver%window] {
			sink(deliver, buf[deliver%window])
			filled[deliver%window] = false
			var zero T
			buf[deliver%window] = zero // release references for the GC
			deliver++
			select {
			case credits <- struct{}{}:
			default:
			}
		}
	}
	return ctx.Err()
}

// EachRange is StreamOrderedRange minus the error plumbing: trials
// [lo, hi) on a background context, delivered to sink in trial order with
// global trial indices.
func EachRange[T any](cfg Config, lo, hi int, fn func(trial int, rng *rand.Rand) T, sink func(trial int, v T)) {
	_ = StreamOrderedRange(context.Background(), cfg, lo, hi, fn, sink)
}
