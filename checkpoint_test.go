package uwpos

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"testing"

	"uwpos/internal/wire/wiretest"
)

func checkpointTestConfig(seed int64) SystemConfig {
	return SystemConfig{
		Env: Pool(),
		Divers: []Diver{
			{Pos: Vec3{X: 0, Y: 0, Z: 1.5}},
			{Pos: Vec3{X: 5, Y: 1, Z: 2.0}},
			{Pos: Vec3{X: 8, Y: -3, Z: 1.0}},
		},
		Seed: seed,
	}
}

// locateJSON runs one round and serializes the outcome; RoundOutcome is
// NaN-free (weights mark missing links), so JSON is byte-comparable.
func locateJSON(t *testing.T, ctx context.Context, sys *System) []byte {
	t.Helper()
	out, err := sys.Locate(ctx)
	if err != nil {
		t.Fatal(err)
	}
	j, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	return j
}

// TestCheckpointRestoreReplay is the public-API statement of the
// crash-safety invariant: checkpoint after round k, rebuild from config,
// restore, and the remaining rounds serialize byte-identically.
func TestCheckpointRestoreReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("full protocol rounds")
	}
	ctx := context.Background()
	for _, seed := range []int64{1, 7} {
		sys, err := NewSystem(checkpointTestConfig(seed))
		if err != nil {
			t.Fatal(err)
		}
		locateJSON(t, ctx, sys) // round 1 (discarded: pre-checkpoint history)
		cp, err := sys.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		if cp.RNGDraws == 0 {
			t.Fatal("round consumed no RNG draws")
		}
		want := [][]byte{locateJSON(t, ctx, sys), locateJSON(t, ctx, sys)}

		re, err := NewSystem(checkpointTestConfig(seed))
		if err != nil {
			t.Fatal(err)
		}
		if err := re.RestoreCheckpoint(ctx, cp); err != nil {
			t.Fatal(err)
		}
		for i, w := range want {
			if got := locateJSON(t, ctx, re); string(got) != string(w) {
				t.Errorf("seed %d: round %d after restore differs from uninterrupted run", seed, i+2)
			}
		}
	}
}

func TestCheckpointSeedMismatch(t *testing.T) {
	sys, err := NewSystem(checkpointTestConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	err = sys.RestoreCheckpoint(context.Background(), Checkpoint{Seed: 4, RNGDraws: 10})
	var ce ConfigError
	if err == nil || !errors.As(err, &ce) || ce.Field != "Seed" {
		t.Fatalf("want ConfigError{Field: Seed} on seed mismatch, got %v", err)
	}
}

func TestGroupTrackerBinaryRoundTrip(t *testing.T) {
	g := NewGroupTracker(TrackerConfig{})
	res := &Result{Positions: []Position{
		{Device: 0, Pos: Vec3{X: 0, Y: 0, Z: 1}},
		{Device: 1, Pos: Vec3{X: 4, Y: 2, Z: 2}},
		{Device: 2, Pos: Vec3{X: 7, Y: -1, Z: 1.5}},
	}}
	for r := 0; r < 4; r++ {
		if err := g.AddRound(float64(r)*10, res); err != nil {
			t.Fatal(err)
		}
	}
	blob, err := g.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	re := NewGroupTracker(TrackerConfig{})
	if err := re.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	// Out-of-order protection state must survive: a round before lastT
	// is rejected by the restored tracker too.
	if err := re.AddRound(5, res); err == nil {
		t.Error("restored tracker accepted an out-of-order round")
	}
	// Identical further rounds keep the two bit-equal.
	if err := g.AddRound(40, res); err != nil {
		t.Fatal(err)
	}
	if err := re.AddRound(40, res); err != nil {
		t.Fatal(err)
	}
	pa, pb := g.PositionsAt(55), re.PositionsAt(55)
	if len(pa) != len(pb) {
		t.Fatalf("tracked sets differ: %d vs %d", len(pa), len(pb))
	}
	for id, p := range pa {
		if pb[id] != p {
			t.Errorf("device %d diverged: %v vs %v", id, p, pb[id])
		}
		if g.UncertaintyOf(id) != re.UncertaintyOf(id) {
			t.Errorf("device %d uncertainty diverged", id)
		}
	}
	// Corruption is rejected and leaves the tracker untouched.
	for name, bad := range wiretest.Unframed(blob) {
		if err := re.UnmarshalBinary(bad); err == nil {
			t.Errorf("%s: corrupt tracker blob accepted", name)
		}
	}
	if re.PositionsAt(55)[1] != pa[1] {
		t.Error("failed decode mutated tracker state")
	}
}

// TestGroupTrackerPinnedBlob holds the tracker format still: an earlier
// release encoded testdata/grouptracker.hex from the rounds below, so
// the current encoder must reproduce it, and decoding it must re-encode
// to the same bytes.
func TestGroupTrackerPinnedBlob(t *testing.T) {
	g := NewGroupTracker(TrackerConfig{})
	res := &Result{Positions: []Position{
		{Device: 0, Pos: Vec3{X: 0, Y: 0, Z: 1}},
		{Device: 1, Pos: Vec3{X: 4, Y: 2, Z: 2}},
		{Device: 2, Pos: Vec3{X: 7, Y: -1, Z: 1.5}},
	}}
	for r := 0; r < 4; r++ {
		if err := g.AddRound(float64(r)*10, res); err != nil {
			t.Fatal(err)
		}
	}
	pinned := wiretest.Pinned(t, "grouptracker")
	if blob, _ := g.MarshalBinary(); !bytes.Equal(blob, pinned) {
		t.Error("encoder output differs from the pinned blob")
	}
	re := NewGroupTracker(TrackerConfig{})
	if err := re.UnmarshalBinary(pinned); err != nil {
		t.Fatal(err)
	}
	if blob, _ := re.MarshalBinary(); !bytes.Equal(blob, pinned) {
		t.Error("pinned blob re-encodes differently")
	}
}
