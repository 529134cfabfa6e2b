package uwpos

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"

	"uwpos/internal/wire"
)

// Checkpoint captures a System's complete mutable state between rounds.
// A simulated deployment is a pure function of its SystemConfig plus the
// position of its random stream — devices, audio and channel state are
// rebuilt every round — so the checkpoint is just the seed (identifying
// the stream) and the draw cursor (identifying the position in it). The
// invariant: a System rebuilt from the same config and restored to a
// checkpoint taken after round k produces rounds k+1..n byte-identical
// to the uninterrupted run. uwposd builds its crash-safe session
// snapshots on this.
type Checkpoint struct {
	// Seed is the effective simulation seed (after defaulting).
	Seed int64
	// RNGDraws is the number of raw random values drawn so far.
	RNGDraws uint64
}

// Checkpoint returns the system's current state cursor. It fails only
// for systems driven by an external RNG (not constructible through the
// public API, but internal trial engines do it); callers holding a
// NewSystem-built System can rely on it succeeding.
func (s *System) Checkpoint() (Checkpoint, error) {
	draws, ok := s.network.RNGDraws()
	if !ok {
		return Checkpoint{}, fmt.Errorf("uwpos: system's RNG position is not observable")
	}
	return Checkpoint{Seed: s.cfg.Seed, RNGDraws: draws}, nil
}

// RestoreCheckpoint fast-forwards a freshly built System to a
// checkpoint previously taken from a System with the identical
// SystemConfig. It validates the seed and refuses to move backwards (a
// System that has already run rounds past the checkpoint cannot rewind;
// rebuild it instead). The fast-forward replays raw RNG draws — tens of
// milliseconds for a typical session history — and honours ctx so a
// restore-on-boot path can be deadline-bounded.
func (s *System) RestoreCheckpoint(ctx context.Context, cp Checkpoint) error {
	if cp.Seed != s.cfg.Seed {
		return ConfigError{Field: "Seed", Reason: fmt.Sprintf(
			"checkpoint from seed %d cannot restore a system seeded %d", cp.Seed, s.cfg.Seed)}
	}
	return s.network.AdvanceRNG(ctx, cp.RNGDraws)
}

// groupTrackerCodecVersion tags the public GroupTracker wire format
// (wrapping internal/track's own versioned blob).
const groupTrackerCodecVersion = 1

// MarshalBinary encodes the tracker's complete state: the last-round
// clock, the seeded flag and every per-diver filter, bit-exact. Part of
// the uwposd session snapshot format.
func (g *GroupTracker) MarshalBinary() ([]byte, error) {
	inner, err := g.inner.MarshalBinary()
	if err != nil {
		return nil, err
	}
	b := make([]byte, 0, 1+8+1+len(inner))
	b = append(b, groupTrackerCodecVersion)
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(g.lastT))
	var flags byte
	if g.seeded {
		flags |= 1
	}
	b = append(b, flags)
	return append(b, inner...), nil
}

// UnmarshalBinary replaces the tracker's state with an encoded one. A
// failed decode leaves the tracker unchanged.
func (g *GroupTracker) UnmarshalBinary(data []byte) error {
	r := wire.NewReader(data)
	if v := r.U8(); r.Err() == nil && v != groupTrackerCodecVersion {
		return fmt.Errorf("uwpos: unknown tracker codec version %d", v)
	}
	lastT := r.F64()
	seeded := r.U8()&1 != 0
	if err := r.Err(); err != nil {
		return fmt.Errorf("uwpos: tracker blob: %w", err)
	}
	inner := NewGroupTracker(TrackerConfig{}).inner
	if err := inner.UnmarshalBinary(r.Bytes(r.Len())); err != nil {
		return err
	}
	g.inner, g.lastT, g.seeded = inner, lastT, seeded
	return nil
}
