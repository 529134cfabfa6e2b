package engine

import (
	"context"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

// TestStreamDeliversEveryTrialOnce runs the unordered stream under heavy
// parallelism (run with -race): every trial must be delivered exactly once
// with the value its private RNG produced, and sink calls must never
// overlap.
func TestStreamDeliversEveryTrialOnce(t *testing.T) {
	const n = 500
	want, err := Run(context.Background(), Config{Seed: 9, Workers: 1}, n, heavyTrial)
	if err != nil {
		t.Fatal(err)
	}
	var inSink atomic.Int32
	seen := make([]int, n)
	err = Stream(context.Background(), Config{Seed: 9, Workers: 16}, n, heavyTrial,
		func(trial int, v float64) {
			if inSink.Add(1) != 1 {
				t.Error("sink called concurrently")
			}
			seen[trial]++
			if v != want[trial] {
				t.Errorf("trial %d: got %v want %v", trial, v, want[trial])
			}
			inSink.Add(-1)
		})
	if err != nil {
		t.Fatal(err)
	}
	for trial, c := range seen {
		if c != 1 {
			t.Fatalf("trial %d delivered %d times", trial, c)
		}
	}
}

// TestStreamOutOfOrderDelivery verifies the unordered contract under
// out-of-order arrival: trial 0 holds its worker until the sink has
// received some other trial, so completion order always differs from trial
// order, and every trial must still arrive once with its own value. The
// hold cannot deadlock: the sink runs on Stream's calling goroutine while
// seven other workers keep completing trials.
func TestStreamOutOfOrderDelivery(t *testing.T) {
	const n = 300
	var order []int
	released := make(chan struct{})
	err := Stream(context.Background(), Config{Seed: 4, Workers: 8}, n,
		func(trial int, _ *rand.Rand) int {
			if trial == 0 {
				<-released
			}
			return trial
		},
		func(trial int, v int) {
			if v != trial {
				t.Errorf("value %d delivered for trial %d", v, trial)
			}
			if len(order) == 0 && trial != 0 {
				close(released)
			}
			order = append(order, trial)
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != n {
		t.Fatalf("delivered %d of %d", len(order), n)
	}
	shuffled := false
	for i, trial := range order {
		if trial != i {
			shuffled = true
			break
		}
	}
	if !shuffled {
		t.Fatal("delivery order matched trial order despite the held trial 0")
	}
}

// TestStreamOrderedMatchesSerial pins the ordered contract: the sink sees
// exactly the sequence a serial loop produces, for every worker count.
func TestStreamOrderedMatchesSerial(t *testing.T) {
	const n = 400
	want, _ := Run(context.Background(), Config{Seed: 11, Workers: 1}, n, heavyTrial)
	for _, workers := range []int{2, 3, 8, 32} {
		nextTrial := 0
		err := StreamOrderedRange(context.Background(), Config{Seed: 11, Workers: workers}, 0, n, heavyTrial,
			func(trial int, v float64) {
				if trial != nextTrial {
					t.Fatalf("workers=%d: delivered trial %d, want %d", workers, trial, nextTrial)
				}
				if v != want[trial] {
					t.Fatalf("workers=%d trial %d: got %v want %v", workers, trial, v, want[trial])
				}
				nextTrial++
			})
		if err != nil {
			t.Fatal(err)
		}
		if nextTrial != n {
			t.Fatalf("workers=%d: delivered %d of %d", workers, nextTrial, n)
		}
	}
}

// TestStreamOrderedSlowHead forces the pathological reorder case — trial 0
// far slower than everything else — and checks delivery stays in order
// with bounded buffering (the credit window stalls the fast workers
// instead of letting them run all n trials ahead).
func TestStreamOrderedSlowHead(t *testing.T) {
	const n = 200
	var started atomic.Int64
	var once sync.Once
	release := make(chan struct{})
	nextTrial := 0
	err := StreamOrderedRange(context.Background(), Config{Seed: 2, Workers: 4}, 0, n,
		func(trial int, _ *rand.Rand) int {
			if trial == 0 {
				<-release // stall the head until later trials have piled up
			} else if started.Add(1) == 10 {
				once.Do(func() { close(release) })
			}
			return trial
		},
		func(trial int, v int) {
			if nextTrial == 0 {
				// Everything delivered-before now waited on trial 0; the
				// credit window must have kept the runahead bounded.
				if s := started.Load(); s > 4*4+4 {
					t.Errorf("%d trials ran ahead of a stalled head (window leak)", s)
				}
			}
			if trial != nextTrial {
				t.Fatalf("delivered %d, want %d", trial, nextTrial)
			}
			nextTrial++
		})
	if err != nil {
		t.Fatal(err)
	}
	if nextTrial != n {
		t.Fatalf("delivered %d of %d", nextTrial, n)
	}
}

func TestStreamContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	err := Stream(ctx, Config{Seed: 1, Workers: 2}, 100000,
		func(trial int, _ *rand.Rand) int {
			if ran.Add(1) == 20 {
				cancel()
			}
			return trial
		},
		func(int, int) {})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := ran.Load(); n >= 100000 {
		t.Errorf("cancellation did not stop scheduling (ran %d)", n)
	}
}

func TestStreamOrderedCancelDeliversPrefix(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	nextTrial := 0
	err := StreamOrderedRange(ctx, Config{Seed: 1, Workers: 4}, 0, 100000,
		func(trial int, _ *rand.Rand) int {
			if ran.Add(1) == 50 {
				cancel()
			}
			return trial
		},
		func(trial int, _ int) {
			if trial != nextTrial {
				t.Fatalf("gap in prefix: delivered %d, want %d", trial, nextTrial)
			}
			nextTrial++
		})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if nextTrial >= 100000 {
		t.Error("cancellation did not stop delivery")
	}
}

func TestStreamZeroTrials(t *testing.T) {
	called := false
	if err := Stream(context.Background(), Config{Seed: 1}, 0, heavyTrial,
		func(int, float64) { called = true }); err != nil || called {
		t.Fatalf("err=%v called=%v", err, called)
	}
	if err := StreamOrderedRange(context.Background(), Config{Seed: 1}, 0, 0, heavyTrial,
		func(int, float64) { called = true }); err != nil || called {
		t.Fatalf("ordered: err=%v called=%v", err, called)
	}
}

func TestEachMatchesRun(t *testing.T) {
	want, _ := Run(context.Background(), Config{Seed: 6, Workers: 1}, 64, heavyTrial)
	i := 0
	EachRange(Config{Seed: 6, Workers: 4}, 0, 64, heavyTrial, func(trial int, v float64) {
		if trial != i || v != want[i] {
			t.Fatalf("trial %d value %v, want trial %d value %v", trial, v, i, want[i])
		}
		i++
	})
	if i != 64 {
		t.Fatalf("delivered %d of 64", i)
	}
}
