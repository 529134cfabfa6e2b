package engine

import (
	"math"
	"math/rand"
	"testing"
)

// TestTrialSeedPinned pins the seed stream to concrete values. TrialSeed
// is the determinism anchor for cross-host shard fan-out: any change to
// these values silently invalidates every golden table and every archived
// shard blob, so a change here must be deliberate. The large trial
// indices (≥ 2³¹) are the regression guard for the platform-word-size
// bug: the former uint(trial)+1 widening truncates them on 32-bit hosts.
func TestTrialSeedPinned(t *testing.T) {
	for _, c := range []struct {
		seed  int64
		trial int
		want  int64
	}{
		{0, 0, -2152535657050944081},
		{1, 0, -7995527694508729151},
		{1, 1, -4689498862643123097},
		{1, 2, -534904783426661026},
		{7, 0, 7191089600892374487},
		{7, 1000, -3523066890008783414},
		{-3, 5, 589125513075409766},
		{1, 2147483648, -8069936865198140066},
		{1, 2147483649, -4166868670322826106},
		{12345, 1099511627776, 7128148681715144737},
		{1, 4611686018427387913, -580102328154784215},
	} {
		if got := TrialSeed(c.seed, c.trial); got != c.want {
			t.Errorf("TrialSeed(%d, %d) = %d, want %d", c.seed, c.trial, got, c.want)
		}
	}
}

// TestTrialSeedWideningIs64Bit verifies the widening arithmetic directly:
// trial indices that collide under 32-bit truncation must not collide in
// the seed stream.
func TestTrialSeedWideningIs64Bit(t *testing.T) {
	// trial and trial+2^32 have identical low 32 bits (mod the +1 offset);
	// a uint32-truncating implementation maps them to the same seed.
	for _, trial := range []int{0, 1, 12345} {
		a := TrialSeed(1, trial)
		b := TrialSeed(1, trial+(1<<32))
		if a == b {
			t.Errorf("TrialSeed collides across 2^32: trial %d", trial)
		}
	}
}

// TestStreamOrderedRangeMatchesFullRun: a span [lo, hi) of an ordered
// range run must deliver exactly the same (trial, value) sequence as
// trials lo..hi-1 of a full run — global indices, bit-identical values —
// at every worker count. This is the shard invariant.
func TestStreamOrderedRangeMatchesFullRun(t *testing.T) {
	const n = 97
	fn := func(trial int, rng *rand.Rand) float64 {
		return float64(trial)*1e6 + rng.NormFloat64()
	}
	var full []float64
	EachRange(Config{Seed: 11, Workers: 1}, 0, n, fn, func(t int, v float64) {
		full = append(full, v)
	})

	for _, span := range [][2]int{{0, n}, {0, 24}, {24, 49}, {49, 73}, {73, n}, {40, 41}, {50, 50}} {
		for _, workers := range []int{1, 8} {
			var got []float64
			var trials []int
			EachRange(Config{Seed: 11, Workers: workers}, span[0], span[1], fn, func(t int, v float64) {
				trials = append(trials, t)
				got = append(got, v)
			})
			if len(got) != span[1]-span[0] {
				t.Fatalf("span %v workers %d: delivered %d results", span, workers, len(got))
			}
			for i, v := range got {
				if trials[i] != span[0]+i {
					t.Fatalf("span %v workers %d: delivery %d carried trial %d, want %d",
						span, workers, i, trials[i], span[0]+i)
				}
				if math.Float64bits(v) != math.Float64bits(full[span[0]+i]) {
					t.Fatalf("span %v workers %d trial %d: %v != full run's %v",
						span, workers, span[0]+i, v, full[span[0]+i])
				}
			}
		}
	}
}

// TestStreamOrderedRangeCoversWithoutOverlap: the shard planner's spans
// partition [0, n); stitched back together they must reproduce the full
// serial sequence exactly once each.
func TestStreamOrderedRangeCoversWithoutOverlap(t *testing.T) {
	const n, shards = 103, 4
	fn := func(trial int, rng *rand.Rand) int64 { return rng.Int63() }

	var full []int64
	EachRange(Config{Seed: 5, Workers: 1}, 0, n, fn, func(t int, v int64) { full = append(full, v) })

	var stitched []int64
	for i := 0; i < shards; i++ {
		lo, hi := n*i/shards, n*(i+1)/shards
		EachRange(Config{Seed: 5, Workers: 3}, lo, hi, fn, func(t int, v int64) {
			stitched = append(stitched, v)
		})
	}
	if len(stitched) != n {
		t.Fatalf("stitched %d results, want %d", len(stitched), n)
	}
	for i := range full {
		if stitched[i] != full[i] {
			t.Fatalf("trial %d: stitched %d != full %d", i, stitched[i], full[i])
		}
	}
}
