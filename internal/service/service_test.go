package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"uwpos"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.SessionTTL == 0 {
		cfg.SessionTTL = -1 // tests drive eviction explicitly
	}
	if cfg.RoundTimeout == 0 {
		cfg.RoundTimeout = -1
	}
	srv, err := NewServer(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })
	return srv, ts
}

// newBareServer builds a handler-less server for unit-level tests.
func newBareServer(t *testing.T) *Server {
	t.Helper()
	srv, err := NewServer(context.Background(), Config{SessionTTL: -1})
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

func doReq(t *testing.T, method, url string, body any) (int, map[string]any) {
	t.Helper()
	var rd bytes.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = *bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, &rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out := map[string]any{}
	_ = json.NewDecoder(resp.Body).Decode(&out)
	return resp.StatusCode, out
}

func poolSpec(seed int64) map[string]any {
	return map[string]any{
		"env": "pool",
		"divers": []map[string]any{
			{"x": 0, "y": 0, "z": 1.5},
			{"x": 5, "y": 1, "z": 2.0},
			{"x": 8, "y": -3, "z": 1.0},
		},
		"seed": seed,
	}
}

func TestSessionLifecycle(t *testing.T) {
	if testing.Short() {
		t.Skip("full round is expensive")
	}
	_, ts := newTestServer(t, Config{})

	status, created := doReq(t, "POST", ts.URL+"/v1/sessions", poolSpec(21))
	if status != http.StatusCreated {
		t.Fatalf("create: %d %v", status, created)
	}
	id := created["id"].(string)
	if created["devices"].(float64) != 3 {
		t.Errorf("devices %v", created["devices"])
	}

	status, round := doReq(t, "POST", ts.URL+"/v1/sessions/"+id+"/rounds", map[string]any{})
	if status != http.StatusOK {
		t.Fatalf("round: %d %v", status, round)
	}
	if round["round"].(float64) != 1 {
		t.Errorf("round number %v", round["round"])
	}
	if n := len(round["positions"].([]any)); n != 3 {
		t.Errorf("%d positions", n)
	}
	if round["anchors"].(float64) != 3 {
		t.Errorf("anchors %v", round["anchors"])
	}

	status, track := doReq(t, "GET", ts.URL+"/v1/sessions/"+id+"/track?at_sec=5", nil)
	if status != http.StatusOK {
		t.Fatalf("track: %d %v", status, track)
	}
	if track["rounds"].(float64) != 1 || track["at_sec"].(float64) != 5 {
		t.Errorf("track %v", track)
	}
	if n := len(track["positions"].([]any)); n != 3 {
		t.Errorf("%d tracked positions", n)
	}

	status, statz := doReq(t, "GET", ts.URL+"/v1/statz", nil)
	if status != http.StatusOK {
		t.Fatalf("statz: %d", status)
	}
	rounds := statz["rounds"].(map[string]any)
	if rounds["total"].(float64) != 1 || rounds["failed"].(float64) != 0 {
		t.Errorf("statz rounds %v", rounds)
	}
	lat := statz["latency_ms"].(map[string]any)["round_exec"].(map[string]any)
	if lat["count"].(float64) != 1 || lat["p50"].(float64) <= 0 {
		t.Errorf("exec latency %v", lat)
	}

	if status, _ := doReq(t, "DELETE", ts.URL+"/v1/sessions/"+id, nil); status != http.StatusNoContent {
		t.Fatalf("delete: %d", status)
	}
	if status, _ := doReq(t, "POST", ts.URL+"/v1/sessions/"+id+"/rounds", nil); status != http.StatusNotFound {
		t.Errorf("round on deleted session: %d", status)
	}
	if status, _ := doReq(t, "DELETE", ts.URL+"/v1/sessions/"+id, nil); status != http.StatusNotFound {
		t.Errorf("double delete: %d", status)
	}
}

func TestCreateValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	// The report phase splits 1–5 kHz into one FSK sub-band per diver;
	// past 13 divers the tones sit closer than the 100 Hz bit rate, so no
	// round could serve the group.
	crowd := make([]map[string]any, 14)
	for i := range crowd {
		crowd[i] = map[string]any{"x": 3 * i, "y": 0, "z": 2}
	}
	cases := []struct {
		name  string
		body  any
		field string
	}{
		{"unknown env", map[string]any{"env": "mariana", "divers": poolSpec(1)["divers"]}, "Env"},
		{"two divers", map[string]any{"env": "pool", "divers": []map[string]any{{"x": 0}, {"x": 5}}}, ""},
		{"bad occluded link", map[string]any{
			"env": "pool", "divers": poolSpec(1)["divers"],
			"occluded_links": [][2]int{{0, 7}},
		}, "OccludedLinks"},
		{"unknown field", map[string]any{"env": "pool", "diverz": 3}, "body"},
		{"diver below the bottom", map[string]any{"env": "pool", "divers": []map[string]any{
			{"x": 0, "y": 0, "z": 1.5}, {"x": 5, "y": 1, "z": 2.0}, {"x": 8, "y": -3, "z": 40},
		}}, "Divers"},
		{"group too large for the report phase", map[string]any{"env": "dock", "divers": crowd}, "Divers"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, body := doReq(t, "POST", ts.URL+"/v1/sessions", tc.body)
			if status != http.StatusBadRequest {
				t.Fatalf("status %d body %v", status, body)
			}
			if tc.field != "" && body["field"] != tc.field {
				t.Errorf("field %v, want %s", body["field"], tc.field)
			}
		})
	}
}

func TestRoundDeadline504(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	status, created := doReq(t, "POST", ts.URL+"/v1/sessions", poolSpec(3))
	if status != http.StatusCreated {
		t.Fatal(status)
	}
	id := created["id"].(string)
	// 1 ms cannot cover a ~1 s round: the deadline must surface as 504,
	// not hang and not 500.
	status, body := doReq(t, "POST", ts.URL+"/v1/sessions/"+id+"/rounds",
		map[string]any{"timeout_ms": 1})
	if status != http.StatusGatewayTimeout {
		t.Fatalf("status %d body %v", status, body)
	}
	// The failure is counted as hard, not degraded.
	_, statz := doReq(t, "GET", ts.URL+"/v1/statz", nil)
	if f := statz["rounds"].(map[string]any)["failed"].(float64); f != 1 {
		t.Errorf("failed rounds %v", f)
	}
}

func TestUnknownSession404(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, req := range [][2]string{
		{"POST", "/v1/sessions/s-404/rounds"},
		{"GET", "/v1/sessions/s-404/track"},
		{"DELETE", "/v1/sessions/s-404"},
	} {
		if status, _ := doReq(t, req[0], ts.URL+req[1], nil); status != http.StatusNotFound {
			t.Errorf("%s %s: %d", req[0], req[1], status)
		}
	}
}

func TestSessionLimit429(t *testing.T) {
	srv, ts := newTestServer(t, Config{MaxSessions: 2})
	for i := 0; i < 2; i++ {
		if status, body := doReq(t, "POST", ts.URL+"/v1/sessions", poolSpec(int64(i+1))); status != http.StatusCreated {
			t.Fatalf("create %d: %d %v", i, status, body)
		}
	}
	status, _ := doReq(t, "POST", ts.URL+"/v1/sessions", poolSpec(9))
	if status != http.StatusTooManyRequests {
		t.Fatalf("over limit: %d", status)
	}
	if n := srv.ActiveSessions(); n != 2 {
		t.Errorf("active %d", n)
	}
}

func TestTTLEviction(t *testing.T) {
	srv, ts := newTestServer(t, Config{SessionTTL: 50 * time.Millisecond})
	status, created := doReq(t, "POST", ts.URL+"/v1/sessions", poolSpec(5))
	if status != http.StatusCreated {
		t.Fatal(status)
	}
	id := created["id"].(string)
	// Fresh session survives a sweep "now".
	if n := srv.evictIdle(time.Now()); n != 0 {
		t.Fatalf("evicted fresh session (%d)", n)
	}
	// A sweep from the far future reaps it.
	if n := srv.evictIdle(time.Now().Add(time.Hour)); n != 1 {
		t.Fatalf("evicted %d, want 1", n)
	}
	if status, _ := doReq(t, "GET", ts.URL+"/v1/sessions/"+id+"/track", nil); status != http.StatusNotFound {
		t.Errorf("evicted session still reachable: %d", status)
	}
	if got := srv.Stats().Sessions.Evicted; got != 1 {
		t.Errorf("evicted counter %d", got)
	}
}

// Degraded-round classification, unit-level: consumeRound and
// degradeRound are driven with hand-built outcomes so the tests pin the
// payload contract without paying for simulated acoustics.

func testSession(t *testing.T, srv *Server) *Session {
	t.Helper()
	sess, err := newSession(SessionSpec{
		Env:    "pool",
		Divers: []DiverSpec{{X: 0, Y: 0, Z: 1.5}, {X: 5, Y: 1, Z: 2}, {X: 8, Y: -3, Z: 1}},
	}, srv)
	if err != nil {
		t.Fatal(err)
	}
	return sess
}

func outcome(stress float64, dropped [][2]int) *uwpos.RoundOutcome {
	res := &uwpos.Result{
		ResidualStress: stress,
		DroppedLinks:   dropped,
		Positions: []uwpos.Position{
			{Device: 0, Pos: uwpos.Vec3{Z: 1.5}},
			{Device: 1, Pos: uwpos.Vec3{X: 5, Y: 1, Z: 2}},
			{Device: 2, Pos: uwpos.Vec3{X: 8, Y: -3, Z: 1}},
		},
	}
	w := [][]float64{{0, 1, 1}, {1, 0, 1}, {1, 1, 0}}
	return &uwpos.RoundOutcome{Result: res, Weights: w, LatencySec: 1.8}
}

func TestConsumeRoundClean(t *testing.T) {
	srv := newBareServer(t)
	defer srv.Close()
	s := testSession(t, srv)
	rep := &RoundReport{AtSec: 0}
	s.consumeRound(0, outcome(0.3, nil), rep)
	if rep.Degraded {
		t.Fatalf("clean round degraded: %+v", rep)
	}
	if rep.Anchors != 3 || len(rep.Positions) != 3 {
		t.Errorf("anchors %d positions %d", rep.Anchors, len(rep.Positions))
	}
	for _, p := range rep.Positions {
		if p.ConfidenceM != baseConfidenceM {
			t.Errorf("device %d confidence %g, want floor %g", p.Device, p.ConfidenceM, baseConfidenceM)
		}
	}
}

func TestConsumeRoundHighStress(t *testing.T) {
	srv := newBareServer(t)
	defer srv.Close()
	s := testSession(t, srv)
	rep := &RoundReport{}
	s.consumeRound(0, outcome(2.4, nil), rep)
	if !rep.Degraded {
		t.Fatal("high-stress round not degraded")
	}
	for _, p := range rep.Positions {
		if p.ConfidenceM != 2.4 {
			t.Errorf("confidence %g, want stress-derived 2.4", p.ConfidenceM)
		}
	}
}

func TestConsumeRoundDroppedLinks(t *testing.T) {
	srv := newBareServer(t)
	defer srv.Close()
	s := testSession(t, srv)
	rep := &RoundReport{}
	s.consumeRound(0, outcome(0.4, [][2]int{{1, 2}}), rep)
	if !rep.Degraded {
		t.Fatal("outlier-dropping round not degraded")
	}
	// Devices on the dropped link carry doubled error bars.
	byDev := map[int]float64{}
	for _, p := range rep.Positions {
		byDev[p.Device] = p.ConfidenceM
	}
	if byDev[0] != baseConfidenceM || byDev[1] != 2*baseConfidenceM || byDev[2] != 2*baseConfidenceM {
		t.Errorf("confidences %v", byDev)
	}
}

func TestDegradeRoundExtrapolates(t *testing.T) {
	srv := newBareServer(t)
	defer srv.Close()
	s := testSession(t, srv)

	// No prior fix: degraded, positionless.
	rep := &RoundReport{}
	s.degradeRound(0, fmt.Errorf("acoustics gone"), rep)
	if !rep.Degraded || len(rep.Positions) != 0 {
		t.Fatalf("first-round degrade: %+v", rep)
	}

	// After a fix, degraded rounds answer from the track with widened
	// error bars.
	good := &RoundReport{}
	s.consumeRound(0, outcome(0.3, nil), good)
	s.hasFix = true
	rep = &RoundReport{}
	s.degradeRound(10, fmt.Errorf("acoustics gone"), rep)
	if !rep.Degraded || rep.Reason == "" {
		t.Fatalf("degrade: %+v", rep)
	}
	if len(rep.Positions) != 3 {
		t.Fatalf("%d extrapolated positions", len(rep.Positions))
	}
	for _, p := range rep.Positions {
		if p.ConfidenceM < 2*baseConfidenceM {
			t.Errorf("device %d confidence %g not widened", p.Device, p.ConfidenceM)
		}
	}
}

func TestRoundTimestampBackwards(t *testing.T) {
	srv := newBareServer(t)
	defer srv.Close()
	s := testSession(t, srv)
	s.clock, s.hasFix = 20, true
	_, err := s.RunRound(t.Context(), RoundRequest{AtSec: 5})
	var ce uwpos.ConfigError
	if !errors.As(err, &ce) || ce.Field != "AtSec" {
		t.Fatalf("want AtSec ConfigError, got %v", err)
	}
}
