// Service load test: drive N concurrent sessions through the uwposd
// session API — create → round → track → delete per session — and report
// client-side latency quantiles alongside the daemon's own /v1/statz
// sketch. Unlike the figure experiments this measures the serving stack,
// not the algorithms, so its latency numbers are machine-dependent and it
// is deliberately excluded from uwbench's deterministic "all" ordering.

package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"uwpos/internal/service"
	"uwpos/internal/stats"
)

// serviceSessions picks the session count: -samples verbatim when set
// (no Quick division — the count IS the experiment), else the CI smoke
// profiles: 1000 full, 50 quick.
func (o Options) serviceSessions() int {
	if o.Samples > 0 {
		return o.Samples
	}
	if o.Quick {
		return 50
	}
	return 1000
}

// runService runs the concurrent-session load test. With opt.ServiceAddr
// empty it hosts the service in-process (same code path as uwposd, no
// network daemon needed); otherwise it targets the live daemon at that
// address.
func runService(opt Options) *stats.Table {
	n := opt.serviceSessions()
	base, shutdown, err := serviceBase(opt)
	if err != nil {
		return serviceErrorTable(err)
	}
	defer shutdown()

	client := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        256,
		MaxIdleConnsPerHost: 256,
	}}

	var (
		mu       sync.Mutex
		create   = stats.NewSketch()
		round    = stats.NewSketch()
		track    = stats.NewSketch()
		degraded int
		failed   int
		retries  int
	)
	fail := func() {
		mu.Lock()
		failed++
		mu.Unlock()
	}

	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Per-worker RNG for backoff jitter: no lock contention on
			// the retry path, reproducible schedule per (seed, worker).
			rt := &retrier{client: client, rng: rand.New(rand.NewSource(opt.seed() + int64(i)))}
			defer func() {
				mu.Lock()
				retries += rt.retries
				mu.Unlock()
			}()
			// Distinct seeds keep the simulated acoustics independent
			// across sessions, like distinct dive groups.
			spec := map[string]any{
				"env": "pool",
				"divers": []map[string]any{
					{"x": 0, "y": 0, "z": 1.5},
					{"x": 5, "y": 1, "z": 2.0},
					{"x": 8, "y": -3, "z": 1.0},
				},
				"seed": opt.seed() + int64(i)*7919,
			}
			var created struct {
				ID string `json:"id"`
			}
			d, status, err := rt.do(http.MethodPost, base+"/v1/sessions", spec, &created)
			if err != nil || status != http.StatusCreated {
				fail()
				return
			}
			mu.Lock()
			create.Add(d)
			mu.Unlock()

			var rep struct {
				Degraded bool `json:"degraded"`
			}
			d, status, err = rt.do(http.MethodPost,
				base+"/v1/sessions/"+created.ID+"/rounds", map[string]any{}, &rep)
			if err != nil || status != http.StatusOK {
				fail()
				return
			}
			mu.Lock()
			round.Add(d)
			if rep.Degraded {
				degraded++
			}
			mu.Unlock()
			opt.observe(d)

			var tr struct {
				Rounds int `json:"rounds"`
			}
			d, status, err = rt.do(http.MethodGet,
				base+"/v1/sessions/"+created.ID+"/track", nil, &tr)
			if err != nil || status != http.StatusOK || tr.Rounds != 1 {
				fail()
				return
			}
			mu.Lock()
			track.Add(d)
			mu.Unlock()

			_, status, err = rt.do(http.MethodDelete,
				base+"/v1/sessions/"+created.ID, nil, nil)
			if err != nil || status != http.StatusNoContent {
				fail()
			}
		}(i)
	}
	wg.Wait()

	// The daemon's own sketch: execution latency excludes queue wait, so
	// it is the number to gate on when sessions outnumber cores.
	var statz service.Statz
	if _, status, err := doJSON(client, http.MethodGet, base+"/v1/statz", nil, &statz); err != nil || status != http.StatusOK {
		return serviceErrorTable(fmt.Errorf("statz unavailable: status %d err %v", status, err))
	}

	t := &stats.Table{
		ID:     "service",
		Title:  fmt.Sprintf("uwposd session API under %d concurrent sessions", n),
		Header: []string{"metric", "count", "p50(ms)", "p99(ms)"},
	}
	row := func(name string, sk *stats.Sketch) {
		q := sk.Quantiles(50, 99)
		t.Rows = append(t.Rows, []string{
			name, fmt.Sprint(sk.Count()), fmt.Sprintf("%.0f", q[0]), fmt.Sprintf("%.0f", q[1]),
		})
	}
	row("create (client)", create)
	row("round e2e (client)", round)
	row("track (client)", track)
	exec := statz.LatencyMS["round_exec"]
	t.Rows = append(t.Rows, []string{
		"round exec (server)", fmt.Sprint(exec.Count),
		fmt.Sprintf("%.0f", exec.P50), fmt.Sprintf("%.0f", exec.P99),
	})
	t.Rows = append(t.Rows, []string{"sessions failed", fmt.Sprint(failed), "-", "-"})
	t.Rows = append(t.Rows, []string{"rounds degraded", fmt.Sprint(degraded), "-", "-"})
	t.Rows = append(t.Rows, []string{"rounds failed (server)", fmt.Sprint(statz.Rounds.Failed), "-", "-"})
	t.Rows = append(t.Rows, []string{"client retries", fmt.Sprint(retries), "-", "-"})
	t.Notes = "client e2e includes queue wait behind the round-execution bound; " +
		"transient 429/5xx answers retry with jittered backoff (counted above); " +
		"gate on server exec latency and the two failure counters (degraded is allowed, failed is not)."
	return t
}

// serviceBase resolves the target base URL, starting an in-process server
// when no address is given. The in-process server disables the round
// deadline and TTL: under a load burst, queue wait is part of the
// measurement, not a failure.
func serviceBase(opt Options) (string, func(), error) {
	if addr := opt.ServiceAddr; addr != "" {
		if !strings.HasPrefix(addr, "http://") && !strings.HasPrefix(addr, "https://") {
			addr = "http://" + addr
		}
		return strings.TrimSuffix(addr, "/"), func() {}, nil
	}
	srv, err := service.NewServer(context.Background(), service.Config{
		SessionTTL:   -1,
		RoundTimeout: -1,
		MaxSessions:  1 << 20,
	})
	if err != nil {
		return "", nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return "", nil, err
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)
	shutdown := func() {
		hs.Close()
		srv.Close()
	}
	return "http://" + ln.Addr().String(), shutdown, nil
}

func serviceErrorTable(err error) *stats.Table {
	return &stats.Table{
		ID:     "service",
		Title:  "uwposd session API load test",
		Header: []string{"metric", "count", "p50(ms)", "p99(ms)"},
		Rows:   [][]string{{"error: " + err.Error(), "-", "-", "-"}},
	}
}

// retrier wraps doJSON with bounded retry: transient answers — 429 from
// the registry cap, any 5xx, or a transport error — back off with full
// jitter (uniform in an exponentially doubling window) and try again,
// so a load burst against a saturated daemon sheds into waiting clients
// instead of synchronized re-hammering. Client errors (other 4xx) never
// retry. Not safe for concurrent use; each worker owns one.
type retrier struct {
	client  *http.Client
	rng     *rand.Rand
	retries int
}

// retryAttempts bounds one logical request at 1 try + 3 retries.
const retryAttempts = 4

// retryBackoff is the first jitter window; it doubles per retry.
const retryBackoff = 25 * time.Millisecond

func transientStatus(status int) bool {
	return status == http.StatusTooManyRequests || status >= 500
}

// do has doJSON's contract, with retries folded in: it returns the final
// attempt's latency, status and error.
func (rt *retrier) do(method, url string, body, out any) (float64, int, error) {
	window := retryBackoff
	for try := 1; ; try++ {
		ms, status, err := doJSON(rt.client, method, url, body, out)
		if try == retryAttempts || (err == nil && !transientStatus(status)) {
			return ms, status, err
		}
		rt.retries++
		time.Sleep(time.Duration(rt.rng.Int63n(int64(window))))
		window *= 2
	}
}

// doJSON performs one request with an optional JSON body, decodes the
// response into out (when non-nil and 2xx), and returns the elapsed
// milliseconds and status.
func doJSON(client *http.Client, method, url string, body, out any) (float64, int, error) {
	var rd *bytes.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return 0, 0, err
		}
		rd = bytes.NewReader(b)
	} else {
		rd = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	start := time.Now()
	resp, err := client.Do(req)
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode < 300 {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return 0, resp.StatusCode, err
		}
	}
	return float64(time.Since(start)) / float64(time.Millisecond), resp.StatusCode, nil
}
