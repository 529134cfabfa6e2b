package track

import (
	"bytes"
	"math"
	"testing"

	"uwpos/internal/geom"
	"uwpos/internal/wire/wiretest"
)

// feed advances a group tracker through a deterministic fix history.
func feedGroup(t *testing.T, g *GroupTracker, from, to int) {
	t.Helper()
	for r := from; r < to; r++ {
		ts := float64(r) * 10
		fixes := []geom.Vec3{
			{X: 0.1 * float64(r), Y: -0.2 * float64(r), Z: 1.5},
			{X: 5 + 0.05*float64(r), Y: 1, Z: 2.0},
			{X: 8, Y: -3 - 0.1*float64(r), Z: 1.0},
		}
		if err := g.Fix(ts, fixes); err != nil {
			t.Fatal(err)
		}
	}
}

// TestGroupCodecRoundTrip: encode → decode → the restored group must
// behave bit-identically, both in immediate queries and after further
// fixes (the covariances drive the next Kalman gain, so any loss of
// precision would diverge the gains).
func TestGroupCodecRoundTrip(t *testing.T) {
	g := NewGroupTracker(FilterConfig{})
	feedGroup(t, g, 0, 5)
	blob, err := g.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}

	re := NewGroupTracker(FilterConfig{})
	if err := re.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}

	// Re-encoding must be byte-identical (deterministic ordering).
	blob2, err := re.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blob, blob2) {
		t.Fatal("re-encoded blob differs")
	}

	// Continue both with identical fixes; states must stay bit-equal.
	feedGroup(t, g, 5, 8)
	feedGroup(t, re, 5, 8)
	for id := 0; id < 3; id++ {
		a, b := g.Tracker(id), re.Tracker(id)
		if a == nil || b == nil {
			t.Fatalf("device %d missing after restore", id)
		}
		pa, _ := a.PositionAt(100)
		pb, _ := b.PositionAt(100)
		if pa != pb {
			t.Errorf("device %d: positions diverged %v vs %v", id, pa, pb)
		}
		if va, vb := a.Velocity(), b.Velocity(); va != vb {
			t.Errorf("device %d: velocities diverged %v vs %v", id, va, vb)
		}
		if ua, ub := a.Uncertainty(), b.Uncertainty(); math.Float64bits(ua) != math.Float64bits(ub) {
			t.Errorf("device %d: uncertainty diverged %v vs %v", id, ua, ub)
		}
	}
}

func TestTrackerCodecUninitialized(t *testing.T) {
	tr := NewTracker(FilterConfig{})
	blob, err := tr.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	re := &Tracker{}
	if err := re.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	if re.initialized {
		t.Fatal("restored tracker claims initialization")
	}
	if re.cfg != tr.cfg {
		t.Fatalf("config mismatch: %+v vs %+v", re.cfg, tr.cfg)
	}
}

func TestCodecRejectsCorruption(t *testing.T) {
	g := NewGroupTracker(FilterConfig{})
	feedGroup(t, g, 0, 2)
	blob, err := g.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}

	for name, bad := range wiretest.Unframed(blob) {
		re := NewGroupTracker(FilterConfig{})
		if err := re.UnmarshalBinary(bad); err == nil {
			t.Errorf("%s: corruption accepted", name)
		}
	}

	tr := &Tracker{}
	if err := tr.UnmarshalBinary(make([]byte, trackerBlobLen-1)); err == nil {
		t.Error("short tracker blob accepted")
	}
	badVer := make([]byte, trackerBlobLen)
	badVer[0] = 7
	if err := tr.UnmarshalBinary(badVer); err == nil {
		t.Error("unknown tracker version accepted")
	}
}
