package engine

import (
	"context"
	"math/rand"
	"sync/atomic"
	"testing"
)

// heavyTrial consumes a variable amount of RNG stream and CPU so worker
// interleavings genuinely differ between runs.
func heavyTrial(t int, rng *rand.Rand) float64 {
	n := 100 + rng.Intn(400)
	var s float64
	for i := 0; i < n; i++ {
		s += rng.NormFloat64()
	}
	return s
}

func TestRunDeterministicAcrossWorkerCounts(t *testing.T) {
	const n = 200
	ref, err := Run(context.Background(), Config{Seed: 7, Workers: 1}, n, heavyTrial)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 8, 64} {
		got, err := Run(context.Background(), Config{Seed: 7, Workers: workers}, n, heavyTrial)
		if err != nil {
			t.Fatal(err)
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("workers=%d trial %d: got %v want %v", workers, i, got[i], ref[i])
			}
		}
	}
}

func TestRunSeedSensitivity(t *testing.T) {
	a, _ := Run(context.Background(), Config{Seed: 1}, 32, heavyTrial)
	b, _ := Run(context.Background(), Config{Seed: 2}, 32, heavyTrial)
	same := 0
	for i := range a {
		if a[i] == b[i] {
			same++
		}
	}
	if same > 0 {
		t.Errorf("%d/32 trials identical across different seeds", same)
	}
}

func TestTrialSeedDecorrelatesAdjacentTrials(t *testing.T) {
	seen := make(map[int64]bool)
	for seed := int64(0); seed < 4; seed++ {
		for trial := 0; trial < 1000; trial++ {
			s := TrialSeed(seed, trial)
			if seen[s] {
				t.Fatalf("collision at seed=%d trial=%d", seed, trial)
			}
			seen[s] = true
		}
	}
}

func TestRunOrderPreserved(t *testing.T) {
	out, err := Run(context.Background(), Config{Seed: 3, Workers: 8}, 100,
		func(trial int, _ *rand.Rand) int { return trial * trial })
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("trial %d landed at slot with value %d", i, v)
		}
	}
}

func TestRunContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	_, err := Run(ctx, Config{Seed: 1, Workers: 2}, 10000, func(trial int, _ *rand.Rand) int {
		if ran.Add(1) == 10 {
			cancel()
		}
		return trial
	})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := ran.Load(); n >= 10000 {
		t.Errorf("cancellation did not stop scheduling (ran %d)", n)
	}
}

func TestRunZeroTrials(t *testing.T) {
	out, err := Run(context.Background(), Config{Seed: 1}, 0, heavyTrial)
	if err != nil || len(out) != 0 {
		t.Fatalf("out=%v err=%v", out, err)
	}
}
