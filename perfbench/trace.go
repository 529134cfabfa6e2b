package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's own
// code around the program's public functions.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the traced phase began
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index of the enclosing span, -1 for none
	Op     int    `json:"op"`     // the op the span belongs to
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced mode: every method returns at once without reading a clock.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index for end.
func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: -1, Parent: parent, Op: op})
	return len(t.spans) - 1
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// durations returns the lengths of every closed span with the given name.
func (t *tracer) durations(name string) []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name && s.End >= 0 {
			out = append(out, time.Duration(s.End-s.Start))
		}
	}
	return out
}

// probeTime sums the spans named "probe.*": extra per-layer measurements
// taken inside the traced phase, which the tracing-overhead ratio leaves
// out.
func (t *tracer) probeTime() time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var sum time.Duration
	for _, s := range t.spans {
		if strings.HasPrefix(s.Name, "probe.") && s.End >= 0 {
			sum += time.Duration(s.End - s.Start)
		}
	}
	return sum
}

// write stores the spans as JSON.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// cpuClasses reads the runtime's CPU accounting: garbage-collector time
// and the CPU time used at all (available minus idle), in seconds.
func cpuClasses() (gc, used float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	f := func(i int) float64 {
		if s[i].Value.Kind() != metrics.KindFloat64 {
			return 0
		}
		return s[i].Value.Float64()
	}
	return f(0), f(1) - f(2)
}

// layerOf maps a function name from a CPU profile to the layer reported
// for it: the package name for the repository's packages, "runtime" for
// the Go runtime, "math" for the numeric standard library and "stdlib" for
// the rest of the standard library (chiefly net/http and encoding/json).
func layerOf(fn string) string {
	pkg, _, _ := strings.Cut(fn, "[") // type arguments may hold other packages' paths
	slash := strings.LastIndexByte(pkg, '/')
	if dot := strings.IndexByte(pkg[slash+1:], '.'); dot >= 0 {
		pkg = pkg[:slash+1+dot]
	}
	switch {
	case strings.HasPrefix(pkg, "uwpos/internal/"):
		return strings.TrimPrefix(pkg, "uwpos/internal/")
	case pkg == "uwpos":
		return "uwpos"
	case pkg == "main" || strings.HasPrefix(pkg, "uwpos/perfbench"):
		return "perfbench"
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	case pkg == "math" || strings.HasPrefix(pkg, "math/") || pkg == "sort" || pkg == "slices":
		return "math"
	}
	return "stdlib"
}

// profileShares returns each layer's flat share of a CPU profile's
// samples, read from `go tool pprof -top`: the share of samples whose
// innermost frame (after inlining) is a function of that layer. It also
// returns the CPU time the profile holds.
func profileShares(path string) (map[string]float64, time.Duration, error) {
	var stderr strings.Builder
	cmd := exec.Command("go", "tool", "pprof", "-top", "-nodecount=0", "-nodefraction=0", "-unit=ms", path)
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, 0, fmt.Errorf("go tool pprof %s: %w: %s", path, err, stderr.String())
	}
	shares := map[string]float64{}
	var total float64
	table := false
	for _, line := range strings.Split(string(out), "\n") {
		f := strings.Fields(line)
		if !table {
			// The table follows the header "flat flat% sum% cum cum%".
			table = len(f) > 0 && f[0] == "flat"
			continue
		}
		if len(f) < 6 {
			continue
		}
		ms, err := strconv.ParseFloat(strings.TrimSuffix(f[0], "ms"), 64)
		if err != nil {
			return nil, 0, fmt.Errorf("go tool pprof %s: line %q: %w", path, line, err)
		}
		shares[layerOf(f[5])] += ms
		total += ms
	}
	if total == 0 {
		return nil, 0, fmt.Errorf("go tool pprof %s: no samples", path)
	}
	for l := range shares {
		shares[l] /= total
	}
	return shares, time.Duration(total * float64(time.Millisecond)), nil
}

// sortedShares lists layers by descending share.
func sortedShares(shares map[string]float64) []string {
	out := make([]string, 0, len(shares))
	for l := range shares {
		out = append(out, l)
	}
	sort.Slice(out, func(i, j int) bool {
		if shares[out[i]] != shares[out[j]] {
			return shares[out[i]] > shares[out[j]]
		}
		return out[i] < out[j]
	})
	return out
}
