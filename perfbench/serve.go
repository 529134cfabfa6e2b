package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"uwpos/internal/engine"
	"uwpos/internal/geom"
	"uwpos/internal/service"
)

const (
	serveConns  = 2 // closed-loop clients, each on its own keep-alive connection
	serveRounds = 5 // rounds per session
	serveTracks = 8 // GET track per round
)

var serveWorkload = workload{
	name: "serve-mixed",
	why:  "uwposd over loopback HTTP: two clients' rounds contend for two cores and fsync a snapshot each, with track and statz reads beside them",
	setup: func(cfg setupConfig) (instance, error) {
		s, err := startServe(cfg)
		if err != nil {
			return nil, err
		}
		if cfg.smoke {
			// Tests: one round per session, no warm-up.
			s.rounds = 1
			return s, nil
		}
		// Warm-up: one session at a fixed seed through every endpoint.
		rec := &recorder{}
		s.session(phase{}, rec, 0, 1, 1, false)
		if rec.failed > 0 {
			s.close()
			return nil, fmt.Errorf("warm-up: %v", rec.problems)
		}
		return s, nil
	},
}

type serveInstance struct {
	seed   int64
	dir    string // the server's state directory; removed on close
	srv    *service.Server
	hs     *http.Server
	served chan error
	base   string
	client *http.Client
	rounds int // per session: serveRounds, or 1 in tests

	checked [serveConns][]roundReport // checked pass: each client's first session

	// traced phase only
	mu               sync.Mutex
	degraded, traced int             // rounds
	snapBytes        int64           // largest session snapshot seen on disk
	httpTime         []time.Duration // client round minus server elapsed_ms
}

// startServe boots an in-process service with a fresh state directory;
// it is ready when Listen returns.
func startServe(cfg setupConfig) (*serveInstance, error) {
	dir, err := filepath.Abs(filepath.Join(cfg.outDir, fmt.Sprintf("serve-state-%d", os.Getpid())))
	if err != nil {
		return nil, err
	}
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	srv, err := service.NewServer(context.Background(), service.Config{StateDir: dir})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	s := &serveInstance{
		seed:   cfg.seed,
		rounds: serveRounds,
		dir:    dir,
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler()},
		served: make(chan error, 1),
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{Timeout: time.Minute, Transport: &http.Transport{
			MaxConnsPerHost:     serveConns,
			MaxIdleConnsPerHost: serveConns,
			DisableCompression:  true,
		}},
	}
	go func() { s.served <- s.hs.Serve(ln) }()
	return s, nil
}

func (s *serveInstance) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = s.hs.Shutdown(ctx) // a forced close below still stops Serve
	_ = s.hs.Close()
	<-s.served
	s.client.CloseIdleConnections()
	s.srv.Close()
	_ = os.RemoveAll(s.dir) // the state directory is scratch
}

// roundReport is the part of service.RoundReport the checks read.
type roundReport struct {
	Degraded  bool    `json:"degraded"`
	ElapsedMS float64 `json:"elapsed_ms"` // server-side, queue wait included
	Positions []struct {
		Device int     `json:"device"`
		X      float64 `json:"x"`
		Y      float64 `json:"y"`
		Z      float64 `json:"z"`
	} `json:"positions"`
}

// do sends one request and decodes a JSON answer into out.
func (s *serveInstance) do(method, path string, body, out any) (int, error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return 0, err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, s.base+path, rd)
	if err != nil {
		return 0, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode < 300 {
		err = json.NewDecoder(resp.Body).Decode(out)
	}
	_, _ = io.Copy(io.Discard, resp.Body) // drain so the connection is reused
	return resp.StatusCode, err
}

// call times one request into rec, where a round is an op and a track or
// statz request is a read, and returns its latency and whether it
// succeeded.
func (s *serveInstance) call(p phase, rec *recorder, span string, op int, method, path string, body, out any, want int) (time.Duration, bool) {
	rec.attempted++
	start := time.Now()
	id := p.tr.begin(span, -1, op)
	status, err := s.do(method, path, body, out)
	p.tr.end(id)
	elapsed := time.Since(start)
	switch span {
	case "service.round":
		rec.ops = append(rec.ops, elapsed)
	case "service.track", "service.statz":
		rec.reads = append(rec.reads, elapsed)
	}
	if err != nil || status != want {
		rec.fail("%s %s: status %d, want %d (%v)", method, path, status, want, err)
		return elapsed, false
	}
	return elapsed, true
}

// sessionSpec is the pool trio with a per-session seed.
func sessionSpec(seed int64) map[string]any {
	divers := make([]map[string]any, len(poolTrio))
	for i, p := range poolTrio {
		divers[i] = map[string]any{"x": p.X, "y": p.Y, "z": p.Z}
	}
	return map[string]any{"env": "pool", "divers": divers, "seed": seed}
}

// session drives one session: create, rounds × (round, serveTracks ×
// track, statz), delete. With stopEarly it stops after the round that
// passes the deadline. op numbers the session's first round in spans. It
// returns the round reports.
func (s *serveInstance) session(p phase, rec *recorder, op int, seed int64, rounds int, stopEarly bool) []roundReport {
	var created struct {
		ID string `json:"id"`
	}
	if _, ok := s.call(p, rec, "service.create", op, http.MethodPost, "/v1/sessions", sessionSpec(seed), &created, http.StatusCreated); !ok {
		return nil
	}
	path := "/v1/sessions/" + created.ID
	var reps []roundReport
	for r := 0; r < rounds; r++ {
		var rep roundReport
		elapsed, ok := s.call(p, rec, "service.round", op+r, http.MethodPost, path+"/rounds", map[string]any{}, &rep, http.StatusOK)
		if !ok {
			break
		}
		if len(rep.Positions) != len(poolTrio) {
			rec.fail("session %s round %d: %d positions, want %d", created.ID, r, len(rep.Positions), len(poolTrio))
		}
		for _, q := range rep.Positions {
			if !finite(q.X, q.Y, q.Z) {
				rec.fail("session %s round %d: position not finite", created.ID, r)
			}
		}
		reps = append(reps, rep)
		for k := 0; k < serveTracks; k++ {
			s.call(p, rec, "service.track", op+r, http.MethodGet, path+"/track", nil, nil, http.StatusOK)
		}
		s.call(p, rec, "service.statz", op+r, http.MethodGet, "/v1/statz", nil, nil, http.StatusOK)
		if p.tr != nil {
			s.traceRound(rep, elapsed, filepath.Join(s.dir, created.ID+".snap"))
		}
		if stopEarly && !time.Now().Before(p.deadline) {
			break
		}
	}
	s.call(p, rec, "service.delete", op, http.MethodDelete, path, nil, nil, http.StatusNoContent)
	return reps
}

func (s *serveInstance) run(p phase) *recorder {
	recs := make([]*recorder, serveConns)
	var wg sync.WaitGroup
	for c := range recs {
		recs[c] = &recorder{ops: make([]time.Duration, 0, 256), reads: make([]time.Duration, 0, 4096)}
		wg.Add(1)
		go func(c int, rec *recorder) {
			defer wg.Done()
			// Session 0 is the checked pass and always runs to the end.
			for sess := 0; sess == 0 || time.Now().Before(p.deadline); sess++ {
				op := c*1_000_000 + sess*serveRounds
				reps := s.session(p, rec, op, engine.TrialSeed(s.seed, 1000*c+sess), s.rounds, sess > 0)
				if p.first && sess == 0 {
					s.checked[c] = reps
				}
			}
		}(c, recs[c])
	}
	wg.Wait()
	rec := recs[0]
	for _, r := range recs[1:] {
		rec.merge(r)
	}
	// The server's own account must show no failed round or save.
	var st service.Statz
	if _, ok := s.call(p, rec, "check.statz", -1, http.MethodGet, "/v1/statz", nil, &st, http.StatusOK); ok {
		if st.Rounds.Failed != 0 || st.Persistence == nil || st.Persistence.SaveErrors != 0 {
			rec.fail("statz: rounds.failed %d, persistence %+v", st.Rounds.Failed, st.Persistence)
		}
	}
	return rec
}

func (s *serveInstance) verify() verdict {
	var v verdict
	h := newDigest()
	var errs []float64
	for c, reps := range s.checked {
		if len(reps) != s.rounds {
			v.violations = append(v.violations, fmt.Sprintf("client %d: checked session has %d rounds, want %d", c, len(reps), s.rounds))
		}
		for _, rep := range reps {
			for _, q := range rep.Positions {
				h.ints(q.Device)
				h.floats(q.X, q.Y, q.Z)
				if q.Device > 0 && q.Device < len(poolTrio) {
					want := poolTrio[q.Device].Sub(poolTrio[0]).XY()
					errs = append(errs, want.Dist(geom.Vec2{X: q.X, Y: q.Y}))
				}
			}
		}
	}
	v.digest = h.sum()
	v.quality = []metric{errQuality("loc_err", errs)}
	return v
}

func (s *serveInstance) layers(tr *tracer, rec *recorder) []metric {
	var st service.Statz
	if _, err := s.do(http.MethodGet, "/v1/statz", nil, &st); err != nil {
		return []metric{{name: "service.statz", value: 0, unit: "-", note: err.Error()}}
	}
	e2e, exec := st.LatencyMS["round_e2e"], st.LatencyMS["round_exec"]
	save, err := s.probeSave()
	size := s.snapBytes
	saveNote := fmt.Sprintf("Store.Save of a %d-byte snapshot", size)
	if err != nil {
		saveNote = err.Error()
	}
	return []metric{
		summary("service.create_ms", tr.durations("service.create")),
		summary("service.round_ms", tr.durations("service.round")),
		summary("service.track_ms", tr.durations("service.track")),
		summary("service.statz_ms", tr.durations("service.statz")),
		summary("service.delete_ms", tr.durations("service.delete")),
		{name: "service.exec_ms", value: exec.P50, unit: "ms", note: fmt.Sprintf("statz round_exec p50, n=%d over the server's life", exec.Count)},
		{name: "service.queue_ms", value: e2e.P50 - exec.P50, unit: "ms", note: "statz round_e2e p50 minus round_exec p50"},
		summary("service.http_ms", s.httpTime),
		summary("service.save_ms", save),
		{name: "service.snapshot_bytes", value: float64(size), unit: "bytes", note: saveNote},
		{name: "service.degraded_frac", value: float64(s.degraded) / float64(max(s.traced, 1)), unit: "frac",
			note: fmt.Sprintf("%d of %d rounds", s.degraded, s.traced)},
	}
}

// traceRound counts a traced round, splits its client latency into
// server time and HTTP time, and notes its session's snapshot size.
func (s *serveInstance) traceRound(rep roundReport, client time.Duration, snapshot string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.traced++
	s.httpTime = append(s.httpTime, client-time.Duration(rep.ElapsedMS*float64(time.Millisecond)))
	if rep.Degraded {
		s.degraded++
	}
	if info, err := os.Stat(snapshot); err == nil && info.Size() > s.snapBytes {
		s.snapBytes = info.Size()
	}
}

// probeSave times service.Store.Save of a blob the size of the largest
// session snapshot, into a scratch store in the state directory.
func (s *serveInstance) probeSave() ([]time.Duration, error) {
	if s.snapBytes == 0 {
		return nil, errors.New("no snapshot seen on disk")
	}
	st, err := service.OpenStore(filepath.Join(s.dir, "probe"), nil)
	if err != nil {
		return nil, err
	}
	blob := make([]byte, s.snapBytes)
	var out []time.Duration
	for i := 0; i < 30; i++ {
		start := time.Now()
		if err := st.Save("probe", blob); err != nil {
			return out, err
		}
		out = append(out, time.Since(start))
	}
	return out, nil
}
