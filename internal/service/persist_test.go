package service

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	"uwpos"
	"uwpos/internal/faultinject"
	"uwpos/internal/wire"
	"uwpos/internal/wire/wiretest"
)

func testSnapshot() *sessionSnapshot {
	return &sessionSnapshot{
		ID: "s-3",
		Spec: SessionSpec{
			Env:    "pool",
			Divers: []DiverSpec{{X: 0, Y: 0, Z: 1.5}, {X: 5, Y: 1, Z: 2}, {X: 8, Y: -3, Z: 1}},
			Seed:   5,
		},
		Seed:     5,
		RNGDraws: 0,
		Rounds:   2,
		Degraded: 1,
		Clock:    10,
		HasFix:   true,
		Tracker:  []byte{1, 2, 3},
	}
}

func TestSnapshotCodecRoundTrip(t *testing.T) {
	sn := testSnapshot()
	blob, err := sn.encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeSnapshot(blob)
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != sn.ID || got.Seed != sn.Seed || got.RNGDraws != sn.RNGDraws ||
		got.Rounds != sn.Rounds || got.Degraded != sn.Degraded ||
		got.Clock != sn.Clock || got.HasFix != sn.HasFix {
		t.Fatalf("round trip changed fields: %+v vs %+v", got, sn)
	}
	if string(got.Tracker) != string(sn.Tracker) {
		t.Fatalf("tracker blob changed: %v", got.Tracker)
	}
	if got.Spec.Env != "pool" || len(got.Spec.Divers) != 3 || got.Spec.Seed != 5 {
		t.Fatalf("spec changed: %+v", got.Spec)
	}
	// Re-encoding is byte-identical: the format is canonical.
	blob2, err := got.encode()
	if err != nil {
		t.Fatal(err)
	}
	if string(blob) != string(blob2) {
		t.Fatal("re-encode differs")
	}
}

func TestSnapshotCodecRejectsCorruption(t *testing.T) {
	blob, err := testSnapshot().encode()
	if err != nil {
		t.Fatal(err)
	}
	for name, data := range wiretest.Framed(blob) {
		if _, err := decodeSnapshot(data); err == nil {
			t.Errorf("%s: corrupt snapshot decoded", name)
		}
	}
	// Well-framed snapshots whose counters no session can reach: a
	// restored session would report more degraded rounds than rounds, or
	// skip the backwards-timestamp guard that HasFix arms.
	for name, mutate := range map[string]func(*sessionSnapshot){
		"degraded above rounds": func(sn *sessionSnapshot) { sn.Degraded = 7 },
		"negative degraded":     func(sn *sessionSnapshot) { sn.Degraded = -1 },
		"negative rounds":       func(sn *sessionSnapshot) { sn.Rounds, sn.Degraded, sn.HasFix = -3, 0, false },
		"no fix after rounds":   func(sn *sessionSnapshot) { sn.HasFix = false },
		"fix before any round":  func(sn *sessionSnapshot) { sn.Rounds, sn.Degraded = 0, 0 },
	} {
		sn := testSnapshot()
		mutate(sn)
		data, err := sn.encode()
		if err != nil {
			t.Fatal(err)
		}
		if got, err := decodeSnapshot(data); err == nil {
			t.Errorf("%s: decoded rounds=%d degraded=%d fix=%v", name, got.Rounds, got.Degraded, got.HasFix)
		}
	}
}

// TestSnapshotCodecPinnedBlob decodes the snapshot an earlier release's
// uwposd wrote after two rounds of persistSpec(5) (testdata/snapshot.hex):
// it must re-encode to the same bytes, its tracker blob too, and a
// state dir holding it must restore on boot.
func TestSnapshotCodecPinnedBlob(t *testing.T) {
	pinned := wiretest.Pinned(t, "snapshot")
	sn, err := decodeSnapshot(pinned)
	if err != nil {
		t.Fatal(err)
	}
	if sn.ID != "s-1" || sn.Seed != 5 || sn.RNGDraws != 4315837 || sn.Rounds != 2 ||
		sn.Degraded != 0 || !sn.HasFix || sn.Spec.Env != "pool" || len(sn.Spec.Divers) != 3 {
		t.Fatalf("decoded fields %+v", sn)
	}
	if re, err := sn.encode(); err != nil || !bytes.Equal(re, pinned) {
		t.Fatalf("re-encode differs from the pinned snapshot (%v)", err)
	}
	trk := uwpos.NewGroupTracker(uwpos.TrackerConfig{})
	if err := trk.UnmarshalBinary(sn.Tracker); err != nil {
		t.Fatal(err)
	}
	if re, err := trk.MarshalBinary(); err != nil || !bytes.Equal(re, sn.Tracker) {
		t.Fatalf("tracker re-encode differs (%v)", err)
	}

	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, sn.ID+snapExt), pinned, 0o644); err != nil {
		t.Fatal(err)
	}
	srv := durableServer(t, dir, 1, nil)
	if st := srv.Stats(); st.Sessions.Restored != 1 || st.Persistence.Quarantined != 0 {
		t.Fatalf("boot restored %d, quarantined %d", st.Sessions.Restored, st.Persistence.Quarantined)
	}
}

// FuzzSnapshotDecode feeds resealed snapshot bodies — so mutations reach
// the field decoders instead of stopping at the checksum — through the
// snapshot and tracker decoders. Nothing may panic, an accepted snapshot
// must hold the counter invariants, and an accepted tracker blob must
// survive a second round trip unchanged.
func FuzzSnapshotDecode(f *testing.F) {
	pinned := wiretest.Pinned(f, "snapshot")
	synthetic, err := testSnapshot().encode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(pinned[:len(pinned)-4])
	f.Add(synthetic[:len(synthetic)-4])
	f.Fuzz(func(t *testing.T, body []byte) {
		sn, err := decodeSnapshot(wire.Seal(append([]byte(nil), body...)))
		if err != nil {
			return
		}
		if sn.Rounds < 0 || sn.Degraded < 0 || sn.Degraded > sn.Rounds || sn.HasFix != (sn.Rounds > 0) {
			t.Fatalf("impossible counters accepted: rounds=%d degraded=%d fix=%v", sn.Rounds, sn.Degraded, sn.HasFix)
		}
		trk := uwpos.NewGroupTracker(uwpos.TrackerConfig{})
		if err := trk.UnmarshalBinary(sn.Tracker); err != nil {
			return
		}
		once, err := trk.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		again := uwpos.NewGroupTracker(uwpos.TrackerConfig{})
		if err := again.UnmarshalBinary(once); err != nil {
			t.Fatalf("re-encoded tracker rejected: %v", err)
		}
		if twice, _ := again.MarshalBinary(); !bytes.Equal(once, twice) {
			t.Fatal("tracker encoding not stable across a round trip")
		}
	})
}

func TestStoreSaveLoadDelete(t *testing.T) {
	st, err := OpenStore(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Save("s-1", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	if err := st.Save("s-1", []byte("hello2")); err != nil {
		t.Fatal(err) // overwrite is fine
	}
	if err := st.Save("s-2", []byte("other")); err != nil {
		t.Fatal(err)
	}
	ids, err := st.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 2 || ids[0] != "s-1" || ids[1] != "s-2" {
		t.Fatalf("list %v", ids)
	}
	b, err := st.Load("s-1")
	if err != nil || string(b) != "hello2" {
		t.Fatalf("load %q %v", b, err)
	}
	if err := st.Delete("s-1"); err != nil {
		t.Fatal(err)
	}
	if err := st.Delete("s-1"); err != nil {
		t.Fatal("deleting a missing snapshot must be a no-op, got", err)
	}
	if ids, _ = st.List(); len(ids) != 1 {
		t.Fatalf("after delete: %v", ids)
	}
	// Quarantine moves the file out of the listing but keeps the bytes.
	if err := st.Quarantine("s-2"); err != nil {
		t.Fatal(err)
	}
	if ids, _ = st.List(); len(ids) != 0 {
		t.Fatalf("after quarantine: %v", ids)
	}
	qb, err := os.ReadFile(filepath.Join(st.dir, quarantineDir, "s-2"+snapExt))
	if err != nil || string(qb) != "other" {
		t.Fatalf("quarantined bytes %q %v", qb, err)
	}
}

func TestStoreInjectedWriteFault(t *testing.T) {
	inj := faultinject.New(faultinject.Config{})
	st, err := OpenStore(t.TempDir(), inj)
	if err != nil {
		t.Fatal(err)
	}
	inj.FailNextWrite()
	if err := st.Save("s-1", []byte("x")); err == nil {
		t.Fatal("armed write fault did not surface")
	}
	if ids, _ := st.List(); len(ids) != 0 {
		t.Fatal("failed save left a file")
	}
	if err := st.Save("s-1", []byte("x")); err != nil {
		t.Fatal(err)
	}
}

// TestRestoreOnBoot drives the whole boot path without running rounds: a
// valid zero-draw snapshot restores; garbage, an ID mismatch and a
// corrupt tracker blob each quarantine; and new session IDs never
// collide with anything seen on disk.
func TestRestoreOnBoot(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	good := testSnapshot() // ID s-3
	good.Tracker = nil     // no tracker state: session had no solved rounds
	goodBlob, err := good.encode()
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Save("s-3", goodBlob); err != nil {
		t.Fatal(err)
	}
	// Codec-valid snapshot whose tracker blob is garbage: restore fails.
	badTracker := testSnapshot()
	badTracker.ID = "s-5"
	badTrackerBlob, err := badTracker.encode()
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Save("s-5", badTrackerBlob); err != nil {
		t.Fatal(err)
	}
	// Valid bytes under the wrong name: identity mismatch.
	if err := st.Save("s-7", goodBlob); err != nil {
		t.Fatal(err)
	}
	if err := st.Save("s-9", []byte("not a snapshot")); err != nil {
		t.Fatal(err)
	}

	srv, err := NewServer(context.Background(), Config{SessionTTL: -1, StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	stz := srv.Stats()
	if stz.Sessions.Restored != 1 || stz.Sessions.Active != 1 {
		t.Fatalf("restored %d active %d, want 1/1", stz.Sessions.Restored, stz.Sessions.Active)
	}
	if stz.Persistence == nil || stz.Persistence.Quarantined != 3 {
		t.Fatalf("persistence counters %+v", stz.Persistence)
	}
	sess, err := srv.Session("s-3")
	if err != nil {
		t.Fatal(err)
	}
	sess.mu.Lock()
	if sess.rounds != 2 || sess.degraded != 1 || sess.clock != 10 || !sess.hasFix {
		t.Errorf("restored counters: rounds=%d degraded=%d clock=%g hasFix=%v",
			sess.rounds, sess.degraded, sess.clock, sess.hasFix)
	}
	sess.mu.Unlock()

	// IDs seen on disk — restored AND quarantined — are burned.
	created, err := srv.CreateSession(good.Spec)
	if err != nil {
		t.Fatal(err)
	}
	if created.ID != "s-10" {
		t.Errorf("new session ID %s, want s-10 (past quarantined s-9)", created.ID)
	}

	// Deleting the restored session removes its snapshot file.
	if err := srv.DeleteSession("s-3"); err != nil {
		t.Fatal(err)
	}
	for _, id := range listOrEmpty(t, srv.store) {
		if id == "s-3" {
			t.Error("snapshot file survived session delete")
		}
	}
}

func listOrEmpty(t *testing.T, st *Store) []string {
	t.Helper()
	ids, err := st.List()
	if err != nil {
		t.Fatal(err)
	}
	return ids
}
