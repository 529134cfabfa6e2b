package service

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"uwpos/internal/faultinject"
)

// This file is the chaos suite for the crash-safe session layer: the
// golden restore-equivalence test (the PR's acceptance bar) plus
// scripted and stochastic fault-injection scenarios. Everything here
// runs full simulated protocol rounds, so it is skipped under -short;
// CI runs it in the full-test leg and nightly re-runs it under -race.

func persistSpec(seed int64) SessionSpec {
	return SessionSpec{
		Env:    "pool",
		Divers: []DiverSpec{{X: 0, Y: 0, Z: 1.5}, {X: 5, Y: 1, Z: 2}, {X: 8, Y: -3, Z: 1}},
		Seed:   seed,
	}
}

func durableServer(t *testing.T, dir string, workers int, inj *faultinject.Injector) *Server {
	t.Helper()
	srv, err := NewServer(context.Background(), Config{
		SessionTTL:          -1,
		RoundTimeout:        -1,
		MaxConcurrentRounds: workers,
		StateDir:            dir,
		Injector:            inj,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return srv
}

// reportJSON canonicalizes a round report for byte comparison: ElapsedMS
// is wall clock and legitimately differs between runs; everything else
// must be byte-identical.
func reportJSON(t *testing.T, rep *RoundReport) string {
	t.Helper()
	c := *rep
	c.ElapsedMS = 0
	b, err := json.Marshal(&c)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func mustRound(t *testing.T, srv *Server, id string) *RoundReport {
	t.Helper()
	sess, err := srv.Session(id)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sess.RunRound(context.Background(), RoundRequest{})
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// copySnapDir clones a state directory's snapshots — the moral
// equivalent of the disk image at the instant of a kill -9.
func copySnapDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if e.IsDir() || !strings.HasSuffix(e.Name(), snapExt) {
			continue
		}
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// TestGoldenRestoreEquivalence is the acceptance test for crash-safe
// sessions: snapshot after round k, "crash" (state-dir copy), restore
// in a fresh server, and every remaining round's report is
// byte-identical to the uninterrupted run — for seeds 1 and 7, under
// round-execution concurrency 1 and 8.
func TestGoldenRestoreEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("full protocol rounds")
	}
	seeds := []int64{1, 7}
	const extraRounds = 2 // rounds k+1..n after the crash point (k = 1)
	for _, workers := range []int{1, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			srvA := durableServer(t, t.TempDir(), workers, nil)
			ids := make([]string, len(seeds))
			for i, seed := range seeds {
				sess, err := srvA.CreateSession(persistSpec(seed))
				if err != nil {
					t.Fatal(err)
				}
				ids[i] = sess.ID
			}
			// Sessions run their rounds concurrently so the worker bound
			// actually schedules; per-session results must not care.
			eachSession := func(f func(i int)) {
				var wg sync.WaitGroup
				for i := range ids {
					wg.Add(1)
					go func(i int) { defer wg.Done(); f(i) }(i)
				}
				wg.Wait()
			}
			eachSession(func(i int) { mustRound(t, srvA, ids[i]) }) // round k = 1
			crashImage := copySnapDir(t, srvA.store.dir)

			want := make([][]string, len(seeds))
			for r := 0; r < extraRounds; r++ {
				eachSession(func(i int) {
					rep := mustRound(t, srvA, ids[i])
					want[i] = append(want[i], reportJSON(t, rep))
				})
			}

			srvB := durableServer(t, crashImage, workers, nil)
			if got := int(srvB.Stats().Sessions.Restored); got != len(seeds) {
				t.Fatalf("restored %d sessions, want %d", got, len(seeds))
			}
			for r := 0; r < extraRounds; r++ {
				eachSession(func(i int) {
					rep := mustRound(t, srvB, ids[i])
					if got := reportJSON(t, rep); got != want[i][r] {
						t.Errorf("seed %d round %d after restore differs:\n got %s\nwant %s",
							seeds[i], r+2, got, want[i][r])
					}
				})
			}
		})
	}
}

// TestSnapshotWriteFaultDoesNotFailRound: a failed snapshot write is an
// availability event (counted), never a correctness event (the round
// still answers, and the next snapshot heals the replay window).
func TestSnapshotWriteFaultDoesNotFailRound(t *testing.T) {
	if testing.Short() {
		t.Skip("full protocol rounds")
	}
	inj := faultinject.New(faultinject.Config{})
	srv := durableServer(t, t.TempDir(), 0, inj)
	sess, err := srv.CreateSession(persistSpec(3))
	if err != nil {
		t.Fatal(err)
	}
	inj.FailNextWrite()
	if _, err := sess.RunRound(context.Background(), RoundRequest{}); err != nil {
		t.Fatalf("round failed on snapshot write fault: %v", err)
	}
	p := srv.Stats().Persistence
	if p.Saves != 0 || p.SaveErrors != 1 {
		t.Fatalf("counters after injected write fault: %+v", p)
	}
	if _, err := sess.RunRound(context.Background(), RoundRequest{}); err != nil {
		t.Fatal(err)
	}
	if p := srv.Stats().Persistence; p.Saves != 1 {
		t.Fatalf("healing snapshot did not land: %+v", p)
	}
}

// TestInjectedKillThenRestartReplaysExactly: kill mid-round (after the
// simulation ran, before anything committed), restart from disk, and
// the re-run round plus the next are byte-identical to a server that
// never crashed.
func TestInjectedKillThenRestartReplaysExactly(t *testing.T) {
	if testing.Short() {
		t.Skip("full protocol rounds")
	}
	const seed = 7

	// Reference: uninterrupted run, rounds 1..3.
	ref := durableServer(t, t.TempDir(), 0, nil)
	refSess, err := ref.CreateSession(persistSpec(seed))
	if err != nil {
		t.Fatal(err)
	}
	var refReports []string
	for r := 0; r < 3; r++ {
		refReports = append(refReports, reportJSON(t, mustRound(t, ref, refSess.ID)))
	}

	// Victim: round 1 commits, round 2 is killed mid-flight.
	inj := faultinject.New(faultinject.Config{})
	dir := t.TempDir()
	srvA := durableServer(t, dir, 0, inj)
	sessA, err := srvA.CreateSession(persistSpec(seed))
	if err != nil {
		t.Fatal(err)
	}
	first := reportJSON(t, mustRound(t, srvA, sessA.ID))
	if first != refReports[0] {
		t.Fatal("victim and reference diverged before any fault")
	}
	inj.Arm(faultinject.FaultKill, 1)
	if _, err := sessA.RunRound(context.Background(), RoundRequest{}); err == nil {
		t.Fatal("killed round reported success")
	}
	if got := srvA.Stats().Rounds.Failed; got != 1 {
		t.Fatalf("failed-round counter %d", got)
	}

	// Restart from disk: the killed round replays byte-identically, and
	// the session continues in lockstep with the reference.
	srvB := durableServer(t, dir, 0, nil)
	for r := 1; r < 3; r++ {
		got := reportJSON(t, mustRound(t, srvB, sessA.ID))
		if got != refReports[r] {
			t.Errorf("round %d after kill+restart differs:\n got %s\nwant %s", r+1, got, refReports[r])
		}
	}
}

// TestInjectedDropAnchorsDegrades: anchor loss takes the soft-failure
// path — HTTP-level success, degraded flag, extrapolated positions once
// a fix exists.
func TestInjectedDropAnchorsDegrades(t *testing.T) {
	if testing.Short() {
		t.Skip("full protocol rounds")
	}
	inj := faultinject.New(faultinject.Config{})
	srv := durableServer(t, t.TempDir(), 0, inj)
	sess, err := srv.CreateSession(persistSpec(4))
	if err != nil {
		t.Fatal(err)
	}
	if rep := mustRound(t, srv, sess.ID); rep.Degraded {
		t.Fatalf("clean first round degraded: %+v", rep)
	}
	inj.Arm(faultinject.FaultDropAnchors, 1)
	rep := mustRound(t, srv, sess.ID)
	if !rep.Degraded || !strings.Contains(rep.Reason, "injected") {
		t.Fatalf("anchor-drop round: degraded=%v reason=%q", rep.Degraded, rep.Reason)
	}
	if len(rep.Positions) == 0 {
		t.Fatal("no extrapolated positions despite a prior fix")
	}
	if got := srv.Stats().Rounds.Degraded; got != 1 {
		t.Fatalf("degraded counter %d", got)
	}
}

// TestInjectedRoundLatencyHonoursDeadline: injected latency stalls the
// round but a context deadline still cuts it off as a hard failure.
func TestInjectedRoundLatencyHonoursDeadline(t *testing.T) {
	inj := faultinject.New(faultinject.Config{RoundLatency: 10 * time.Second})
	srv, err := NewServer(context.Background(), Config{SessionTTL: -1, RoundTimeout: -1, Injector: inj})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	sess, err := srv.CreateSession(persistSpec(5))
	if err != nil {
		t.Fatal(err)
	}
	inj.Arm(faultinject.FaultRoundLatency, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	if _, err := sess.RunRound(ctx, RoundRequest{}); err == nil {
		t.Fatal("stalled round beat a 30 ms deadline")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("deadline did not cut the injected stall (took %v)", elapsed)
	}
	if got := inj.Fired(faultinject.FaultRoundLatency); got != 1 {
		t.Fatalf("latency fault fired %d times", got)
	}
}

// TestChaosStorm: seeded multi-fault storm over concurrent sessions.
// Whatever the storm does, the server's books must balance, and a
// restart from the surviving state directory must restore every
// session that had a committed round and serve it a clean round.
func TestChaosStorm(t *testing.T) {
	if testing.Short() {
		t.Skip("full protocol rounds")
	}
	inj := faultinject.New(faultinject.Config{
		Seed:             31,
		WriteErrorRate:   0.3,
		DropAnchorsRate:  0.25,
		KillRate:         0.15,
		RoundLatencyRate: 0.2,
		RoundLatency:     time.Millisecond,
	})
	dir := t.TempDir()
	srv := durableServer(t, dir, 4, inj)

	const sessions = 3
	const attempts = 3
	ids := make([]string, sessions)
	for i := range ids {
		sess, err := srv.CreateSession(persistSpec(int64(100 + i)))
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = sess.ID
	}
	var (
		mu        sync.Mutex
		committed = map[string]int{}
		wg        sync.WaitGroup
	)
	for _, id := range ids {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			sess, err := srv.Session(id)
			if err != nil {
				t.Error(err)
				return
			}
			for a := 0; a < attempts; a++ {
				rep, err := sess.RunRound(context.Background(), RoundRequest{})
				if err != nil {
					continue // injected kill: client would retry
				}
				mu.Lock()
				committed[id] = rep.Round
				mu.Unlock()
			}
		}(id)
	}
	wg.Wait()

	stz := srv.Stats()
	var total int
	for _, n := range committed {
		total += n
	}
	if int(stz.Rounds.Total) != total {
		t.Errorf("books don't balance: server total %d, clients saw %d commits", stz.Rounds.Total, total)
	}
	if stz.Persistence.Saves+stz.Persistence.SaveErrors != stz.Rounds.Total {
		t.Errorf("every commit must attempt a snapshot: saves=%d errors=%d total=%d",
			stz.Persistence.Saves, stz.Persistence.SaveErrors, stz.Rounds.Total)
	}

	// Restart without faults: exactly the sessions whose snapshot write
	// survived the storm (i.e. whatever is on disk) must come back and
	// serve a clean round — a session whose every save was injected to
	// fail is legitimately gone, that is the stated durability contract.
	onDisk, err := srv.store.List()
	if err != nil {
		t.Fatal(err)
	}
	srv.Close()
	re := durableServer(t, dir, 4, nil)
	if got := int(re.Stats().Sessions.Restored); got != len(onDisk) {
		t.Errorf("restored %d sessions, %d snapshots on disk", got, len(onDisk))
	}
	for _, id := range onDisk {
		sess, err := re.Session(id)
		if err != nil {
			t.Errorf("snapshot %s present but session lost: %v", id, err)
			continue
		}
		rep, err := sess.RunRound(context.Background(), RoundRequest{})
		if err != nil {
			t.Errorf("restored session %s cannot run: %v", id, err)
			continue
		}
		if rep.Round < 2 || rep.Round > committed[id]+1 {
			t.Errorf("restored session %s round counter %d (committed %d)", id, rep.Round, committed[id])
		}
	}
	if q := re.Stats().Persistence.Quarantined; q != 0 {
		t.Errorf("%d snapshots quarantined after storm (atomic writes must prevent this)", q)
	}
}
