package main

import (
	"bytes"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"uwpos/internal/experiments"
	"uwpos/internal/stats"
	"uwpos/internal/wire"
)

// stripTimings removes the wall-clock suffix from "(id in 1.2s)" lines so
// outputs compare across runs, the same normalization the CI smoke uses.
var timingRe = regexp.MustCompile(` in [0-9.]+s\)`)

func stripTimings(s string) string { return timingRe.ReplaceAllString(s, ")") }

// TestProfileWrittenOnFailurePath: the CPU profile must be flushed and the
// file closed even when the run fails. The old main called os.Exit from
// inside the function that owned the deferred StopCPUProfile, so every
// error path (and every successful -out path) left a truncated, unreadable
// profile.
func TestProfileWrittenOnFailurePath(t *testing.T) {
	prof := filepath.Join(t.TempDir(), "cpu.pprof")
	var stdout, stderr bytes.Buffer
	code := run([]string{"-cpuprofile", prof, "-experiment", "no-such-experiment"}, &stdout, &stderr)
	if code != 2 {
		t.Fatalf("exit code = %d, want 2; stderr: %s", code, stderr.String())
	}
	raw, err := os.ReadFile(prof)
	if err != nil {
		t.Fatalf("profile not written: %v", err)
	}
	// A flushed pprof profile is a gzip stream; a skipped StopCPUProfile
	// leaves an empty or headerless file.
	if len(raw) < 2 || raw[0] != 0x1f || raw[1] != 0x8b {
		t.Fatalf("profile is not a flushed gzip stream (%d bytes, header % x)", len(raw), raw[:min(2, len(raw))])
	}
}

func TestParseExperimentIDs(t *testing.T) {
	cases := []struct {
		in      string
		want    []string
		wantErr string
	}{
		{in: "fig06a", want: []string{"fig06a"}},
		{in: "fig06a,battery", want: []string{"fig06a", "battery"}},
		{in: "fig06a,,battery", want: []string{"fig06a", "battery"}}, // empty entry skipped
		{in: "fig06a,battery,", want: []string{"fig06a", "battery"}}, // trailing comma skipped
		{in: " fig06a , battery ", want: []string{"fig06a", "battery"}},
		{in: "fig06a,battery,fig06a", wantErr: "more than once"},
		{in: ",,,", wantErr: "names no experiments"},
		{in: "", wantErr: "names no experiments"},
	}
	for _, c := range cases {
		got, err := parseExperimentIDs(c.in)
		if c.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Errorf("parseExperimentIDs(%q) err = %v, want substring %q", c.in, err, c.wantErr)
			}
			continue
		}
		if err != nil {
			t.Errorf("parseExperimentIDs(%q): %v", c.in, err)
			continue
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("parseExperimentIDs(%q) = %v, want %v", c.in, got, c.want)
		}
	}
	// "all" runs every experiment but the service load test, in the
	// paper's order.
	all := []string{
		"fig06a", "fig06b", "fig06c", "fig06d",
		"fig11a", "fig11b", "fig12a", "fig12b",
		"fig13a", "fig13b", "fig14a", "fig14b",
		"fig15", "fig16", "fig22",
		"fig18", "fig19a", "fig19b", "fig19b-4dev", "fig20",
		"rtt", "flipping", "battery", "streaming", "ingest",
		"ablation-bandwindow", "ablation-prefilter", "ablation-restarts", "ablation-reportback",
		"headline",
	}
	if ids, err := parseExperimentIDs("all"); err != nil || !reflect.DeepEqual(ids, all) {
		t.Errorf(`parseExperimentIDs("all") = %v, %v; want %v`, ids, err, all)
	}
}

// TestRegistryContract pins what uwbench exposes of the experiment
// registry: the listed ids, which of them are live, and that a live
// experiment refuses to shard.
func TestRegistryContract(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-experiment", "list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("list: exit %d, stderr: %s", code, stderr.String())
	}
	want := []string{
		"ablation-bandwindow", "ablation-prefilter", "ablation-reportback", "ablation-restarts",
		"battery", "fig06a", "fig06b", "fig06c", "fig06d", "fig11a", "fig11b", "fig12a", "fig12b",
		"fig13a", "fig13b", "fig14a", "fig14b", "fig15", "fig16", "fig18", "fig19a", "fig19b",
		"fig19b-4dev", "fig20", "fig22", "flipping", "headline", "ingest", "rtt", "service", "streaming",
	}
	if got := strings.Fields(stdout.String()); !reflect.DeepEqual(got, want) {
		t.Errorf("-experiment list = %v, want %v", got, want)
	}

	liveIDs := map[string]bool{"streaming": true, "ingest": true, "service": true}
	seen := make(map[string]bool)
	for _, e := range experiments.Experiments() {
		if seen[e.ID] {
			t.Errorf("experiment %q registered twice", e.ID)
		}
		seen[e.ID] = true
		if e.Live != liveIDs[e.ID] {
			t.Errorf("experiment %q: live = %v, want %v", e.ID, e.Live, liveIDs[e.ID])
		}
		if e.Live == experiments.CanShard(e.ID) {
			t.Errorf("experiment %q: live = %v but CanShard = %v", e.ID, e.Live, experiments.CanShard(e.ID))
		}
	}

	out := filepath.Join(t.TempDir(), "shard.json")
	for id := range liveIDs {
		stdout.Reset()
		stderr.Reset()
		code := run([]string{"-experiment", id, "-shard", "0/2", "-out", out}, &stdout, &stderr)
		if code != 2 || !strings.Contains(stderr.String(), "cannot run sharded") {
			t.Errorf("%s -shard 0/2: exit %d, stderr %q; want 2, cannot run sharded", id, code, stderr.String())
		}
	}
}

func TestParseShard(t *testing.T) {
	spec, err := parseShard("2/4")
	if err != nil || spec.Index != 2 || spec.Count != 4 {
		t.Errorf("parseShard(2/4) = %+v, %v", spec, err)
	}
	for _, bad := range []string{"", "3", "a/4", "1/b", "4/4", "-1/4", "0/0"} {
		if _, err := parseShard(bad); err == nil {
			t.Errorf("parseShard(%q) accepted", bad)
		}
	}
}

func TestUnknownExperimentRejected(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-experiment", "fig06a,bogus"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit code = %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), `unknown experiment "bogus"`) {
		t.Errorf("stderr = %q, want unknown-experiment message", stderr.String())
	}
}

// TestShardMergeMatchesFullRun drives the real CLI surface in-process:
// two shards at different worker counts, emitted to disk, merged — the
// merged tables must be byte-identical to the single-process run.
func TestShardMergeMatchesFullRun(t *testing.T) {
	dir := t.TempDir()
	base := []string{"-experiment", "fig06a,fig13b", "-seed", "5", "-samples", "8"}

	var full, mergeOut, stderr bytes.Buffer
	if code := run(append([]string{"-workers", "1"}, base...), &full, &stderr); code != 0 {
		t.Fatalf("full run: exit %d, stderr: %s", code, stderr.String())
	}

	paths := make([]string, 2)
	for s := 0; s < 2; s++ {
		paths[s] = filepath.Join(dir, "shard_"+string(rune('0'+s))+".json")
		args := append([]string{"-workers", string(rune('0' + s*3 + 1)), "-shard", string(rune('0'+s)) + "/2", "-out", paths[s]}, base...)
		var out bytes.Buffer
		stderr.Reset()
		if code := run(args, &out, &stderr); code != 0 {
			t.Fatalf("shard %d: exit %d, stderr: %s", s, code, stderr.String())
		}
		if out.Len() != 0 {
			t.Errorf("shard %d wrote tables to stdout: %q", s, out.String())
		}
	}

	recordPath := filepath.Join(dir, "merged.json")
	stderr.Reset()
	if code := run([]string{"-merge", strings.Join(paths, ","), "-out", recordPath}, &mergeOut, &stderr); code != 0 {
		t.Fatalf("merge: exit %d, stderr: %s", code, stderr.String())
	}
	if got, want := stripTimings(mergeOut.String()), stripTimings(full.String()); got != want {
		t.Errorf("merged output differs from full run\n got: %s\nwant: %s", got, want)
	}

	raw, err := os.ReadFile(recordPath)
	if err != nil {
		t.Fatalf("merge -out: %v", err)
	}
	var record benchFile
	if err := json.Unmarshal(raw, &record); err != nil {
		t.Fatalf("merge -out parse: %v", err)
	}
	if len(record.Experiments) != 2 || record.Experiments[0].ID != "fig06a" || record.Seed != 5 {
		t.Errorf("merge record unexpected: seed=%d ids=%v", record.Seed, record.Experiments)
	}
}

// TestMergeRejectsMismatchedShards: shards from different sweeps (wrong
// seed, missing index, duplicate index) must be refused, not silently
// folded into a wrong table.
func TestMergeRejectsMismatchedShards(t *testing.T) {
	dir := t.TempDir()
	emit := func(name string, seed string, spec string) string {
		path := filepath.Join(dir, name)
		var out, stderr bytes.Buffer
		args := []string{"-experiment", "fig13b", "-seed", seed, "-samples", "4", "-shard", spec, "-out", path}
		if code := run(args, &out, &stderr); code != 0 {
			t.Fatalf("emit %s: exit %d, stderr: %s", name, code, stderr.String())
		}
		return path
	}
	s0 := emit("s0.json", "5", "0/2")
	s1 := emit("s1.json", "5", "1/2")
	s1badSeed := emit("s1_seed.json", "6", "1/2")

	cases := []struct{ name, files, wantErr string }{
		{"seed mismatch", s0 + "," + s1badSeed, "workload flags"},
		{"missing shard", s0, "2 but 1 files"},
		{"duplicate index", s0 + "," + s0, "exactly once"},
		{"foreign sketch capacity", writeShard(t, dir, "fig13b", smallSketchPartial(t)), "capacity 100"},
		{"live experiment", writeShard(t, dir, "streaming", emptyPartial(t)), "live-pipeline"},
		{"ok", s0 + "," + s1, ""},
	}
	for _, c := range cases {
		var out, stderr bytes.Buffer
		code := run([]string{"-merge", c.files}, &out, &stderr)
		if c.wantErr == "" {
			if code != 0 {
				t.Errorf("%s: exit %d, stderr: %s", c.name, code, stderr.String())
			}
			continue
		}
		if code == 0 || !strings.Contains(stderr.String(), c.wantErr) || out.Len() != 0 {
			t.Errorf("%s: exit %d, stdout %q, stderr %q; want failure mentioning %q and no table", c.name, code, out.String(), stderr.String(), c.wantErr)
		}
	}
}

// smallSketchPartial encodes a partial holding one reservoir-mode sketch
// of capacity 100 (200 values), framed as the experiments.Partial codec
// lays it out: one sketch entry, no counters, no stage cursors.
func smallSketchPartial(t *testing.T) []byte {
	t.Helper()
	sk := stats.NewSketchSize(100)
	for i := 0; i < 200; i++ {
		sk.Add(float64(i))
	}
	skBlob, err := sk.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	const key = "fig13b/0"
	b := wire.Begin(nil, "UWPB", 1)
	b = binary.LittleEndian.AppendUint32(b, 1)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(key)))
	b = append(b, key...)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(skBlob)))
	b = append(b, skBlob...)
	b = binary.LittleEndian.AppendUint32(b, 0)
	b = binary.LittleEndian.AppendUint32(b, 0)
	return wire.Seal(b)
}

func emptyPartial(t *testing.T) []byte {
	t.Helper()
	blob, err := experiments.NewPartial().MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// writeShard writes a complete one-shard file carrying one experiment's
// partial blob and returns its path.
func writeShard(t *testing.T, dir, id string, partial []byte) string {
	t.Helper()
	blob, err := json.Marshal(shardFile{
		Schema: 1, Seed: 5, Samples: 4, Shard: experiments.ShardSpec{Index: 0, Count: 1},
		Experiments: []shardEntry{{ID: id, Partial: base64.StdEncoding.EncodeToString(partial)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, id+"_shard.json")
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestResumeRejectsMismatchedCheckpoint: a checkpoint recorded under
// different workload flags must not be silently replayed.
func TestResumeRejectsMismatchedCheckpoint(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "run.ckpt")
	blob, _ := json.Marshal(checkpointFile{Schema: 1, Seed: 99, Samples: 8})
	if err := os.WriteFile(ckpt, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	var out, stderr bytes.Buffer
	code := run([]string{"-experiment", "fig13b", "-seed", "5", "-samples", "8", "-checkpoint", ckpt, "-resume"}, &out, &stderr)
	if code != 2 || !strings.Contains(stderr.String(), "flags differ") {
		t.Errorf("exit %d, stderr %q; want 2 with flag-mismatch message", code, stderr.String())
	}
	// A missing checkpoint is not an error: -resume is an idempotent
	// relaunch wrapper, the first launch simply starts from scratch.
	out.Reset()
	stderr.Reset()
	code = run([]string{"-experiment", "fig13b", "-seed", "5", "-samples", "4", "-checkpoint", filepath.Join(dir, "absent.ckpt"), "-resume"}, &out, &stderr)
	if code != 0 {
		t.Errorf("fresh -resume run: exit %d, stderr: %s", code, stderr.String())
	}
}

// TestCheckpointedRunMatchesPlainRun: enabling checkpointing must not
// change the printed tables, and a completed run must clear its
// checkpoint so a later -resume starts fresh.
func TestCheckpointedRunMatchesPlainRun(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "run.ckpt")
	base := []string{"-experiment", "fig06a,battery", "-seed", "7", "-samples", "8"}

	var plain, ckRun, stderr bytes.Buffer
	if code := run(base, &plain, &stderr); code != 0 {
		t.Fatalf("plain: exit %d, stderr: %s", code, stderr.String())
	}
	stderr.Reset()
	if code := run(append([]string{"-checkpoint", ckpt, "-checkpoint-every", "8"}, base...), &ckRun, &stderr); code != 0 {
		t.Fatalf("checkpointed: exit %d, stderr: %s", code, stderr.String())
	}
	if got, want := stripTimings(ckRun.String()), stripTimings(plain.String()); got != want {
		t.Errorf("checkpointed run output differs from plain run\n got: %s\nwant: %s", got, want)
	}
	if _, err := os.Stat(ckpt); !os.IsNotExist(err) {
		t.Errorf("checkpoint %s survived a successful run (err=%v)", ckpt, err)
	}
}
