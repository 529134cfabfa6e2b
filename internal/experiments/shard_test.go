package experiments

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"uwpos/internal/stats"
	"uwpos/internal/wire/wiretest"
)

// shardTestIDs are the experiments the merge-identity test exercises: one
// analytical sweep (many small stages), one sensor study (run-rng sensor
// construction shared by all shards), one engine.Run-style study, one
// counter-only experiment, and the serial shard-0-only probe study.
var shardTestIDs = []string{"fig06a", "fig13b", "fig16", "ablation-prefilter", "fig22"}

func testOpt(seed int64, workers int) Options {
	return Options{Seed: seed, Samples: 8, Workers: workers}
}

func runFull(t *testing.T, id string, opt Options) (*Partial, *stats.Table) {
	t.Helper()
	p := NewPartial()
	if err := Accumulate(id, opt, p); err != nil {
		t.Fatalf("accumulate %s: %v", id, err)
	}
	table, err := RenderPartial(id, opt, p)
	if err != nil {
		t.Fatalf("render %s: %v", id, err)
	}
	if table.ID != id {
		t.Fatalf("%s rendered a table with id %q", id, table.ID)
	}
	for i, row := range table.Rows {
		if len(row) != len(table.Header) {
			t.Fatalf("%s row %d has %d cells, header has %d", id, i, len(row), len(table.Header))
		}
	}
	return p, table
}

// TestShardedRunMatchesFullRun: for every shard count and worker mix,
// accumulating each shard separately and folding the Partials in
// shard-index order must render exactly the single-process table.
func TestShardedRunMatchesFullRun(t *testing.T) {
	for _, id := range shardTestIDs {
		id := id
		t.Run(id, func(t *testing.T) {
			_, want := runFull(t, id, testOpt(3, 1))
			for _, shards := range []int{2, 3} {
				for _, workers := range []int{1, 8} {
					merged := NewPartial()
					for s := 0; s < shards; s++ {
						opt := testOpt(3, workers)
						opt.Shard = ShardSpec{Index: s, Count: shards}
						p := NewPartial()
						if err := Accumulate(id, opt, p); err != nil {
							t.Fatalf("shard %d/%d: %v", s, shards, err)
						}
						// Round-trip every shard blob through the codec, as
						// the CLI does between processes.
						blob, err := p.MarshalBinary()
						if err != nil {
							t.Fatalf("marshal shard %d/%d: %v", s, shards, err)
						}
						restored := NewPartial()
						if err := restored.UnmarshalBinary(blob); err != nil {
							t.Fatalf("unmarshal shard %d/%d: %v", s, shards, err)
						}
						merged.Merge(restored)
					}
					got, err := RenderPartial(id, testOpt(3, 1), merged)
					if err != nil {
						t.Fatalf("render merged: %v", err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Errorf("%s: %d shards × %d workers table differs from full run\n got: %+v\nwant: %+v",
							id, shards, workers, got, want)
					}
				}
			}
		})
	}
}

// TestShardResumeMatchesFullRun simulates a preempted shard: a checkpoint
// snapshot taken mid-run (after an arbitrary number of delivered trials)
// is restored into a fresh Partial and re-accumulated. The resumed run
// must skip the checkpointed prefix and produce exactly the full table —
// including when the snapshot was taken under parallel workers.
func TestShardResumeMatchesFullRun(t *testing.T) {
	const id = "fig06a"
	_, want := runFull(t, id, testOpt(9, 1))

	for _, workers := range []int{1, 8} {
		for _, snapAt := range []int{1, 37, 70} { // fig06a @ Samples=8 delivers 72 trials
			opt := testOpt(9, workers)
			p := NewPartial()
			var snapshot []byte
			ticks := 0
			opt.Checkpoint = func() {
				ticks++
				if ticks == snapAt {
					blob, err := p.MarshalBinary()
					if err != nil {
						t.Fatalf("checkpoint marshal: %v", err)
					}
					snapshot = blob
				}
			}
			if err := Accumulate(id, opt, p); err != nil {
				t.Fatalf("accumulate: %v", err)
			}
			if snapshot == nil {
				t.Fatalf("run delivered %d trials, snapshot point %d never reached", ticks, snapAt)
			}

			resumed := NewPartial()
			if err := resumed.UnmarshalBinary(snapshot); err != nil {
				t.Fatalf("restore checkpoint: %v", err)
			}
			opt.Checkpoint = nil
			if err := Accumulate(id, opt, resumed); err != nil {
				t.Fatalf("resume accumulate: %v", err)
			}
			got, err := RenderPartial(id, testOpt(9, 1), resumed)
			if err != nil {
				t.Fatalf("render resumed: %v", err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("workers %d snapshot@%d: resumed table differs from full run", workers, snapAt)
			}
		}
	}
}

// TestShardResumeUnderSharding: checkpoint/resume composes with a shard
// span — a snapshot of shard 1 of 3, resumed, must merge with the other
// shards into the full-run table.
func TestShardResumeUnderSharding(t *testing.T) {
	const id = "fig13b"
	_, want := runFull(t, id, testOpt(5, 1))

	merged := NewPartial()
	for s := 0; s < 3; s++ {
		opt := testOpt(5, 4)
		opt.Shard = ShardSpec{Index: s, Count: 3}
		p := NewPartial()
		if s == 1 {
			var snapshot []byte
			ticks := 0
			opt.Checkpoint = func() {
				ticks++
				if ticks == 5 {
					snapshot, _ = p.MarshalBinary()
				}
			}
			if err := Accumulate(id, opt, p); err != nil {
				t.Fatalf("shard 1 first pass: %v", err)
			}
			if snapshot == nil {
				t.Fatalf("shard 1 too small for snapshot point")
			}
			p = NewPartial()
			if err := p.UnmarshalBinary(snapshot); err != nil {
				t.Fatalf("restore shard 1: %v", err)
			}
			opt.Checkpoint = nil
		}
		if err := Accumulate(id, opt, p); err != nil {
			t.Fatalf("shard %d: %v", s, err)
		}
		merged.Merge(p)
	}
	got, err := RenderPartial(id, testOpt(5, 1), merged)
	if err != nil {
		t.Fatalf("render merged: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("kill+resume of shard 1 changed the merged table")
	}
}

// TestPartialCodecRoundTrip: decode∘encode is the identity on canonical
// blobs, and the codec refuses corruption.
func TestPartialCodecRoundTrip(t *testing.T) {
	p := NewPartial()
	sk := p.Sketch("a/0")
	for i := 0; i < 50; i++ {
		sk.Add(float64(i) * 1.25)
	}
	p.Sketch("empty") // created but never fed
	p.AddCounter("a/0#miss", 3)
	p.AddCounter("hits", 41)
	for i := 0; i < 7; i++ {
		p.markDone("a/0")
	}

	blob, err := p.MarshalBinary()
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	q := NewPartial()
	if err := q.UnmarshalBinary(blob); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	blob2, err := q.MarshalBinary()
	if err != nil {
		t.Fatalf("re-marshal: %v", err)
	}
	if !bytes.Equal(blob, blob2) {
		t.Fatalf("codec not canonical: re-encoded blob differs")
	}
	if q.Counter("hits") != 41 || q.Counter("a/0#miss") != 3 {
		t.Errorf("counters lost: hits=%d miss=%d", q.Counter("hits"), q.Counter("a/0#miss"))
	}
	if q.doneOf("a/0") != 7 {
		t.Errorf("stage cursor lost: %d", q.doneOf("a/0"))
	}
	if got, want := q.Sketch("a/0").Values(), p.Sketch("a/0").Values(); !reflect.DeepEqual(got, want) {
		t.Errorf("sketch values lost")
	}

	// Corruption: the shared matrix (every truncation, every bit flip,
	// bad magic, future version, trailing byte) must all be rejected.
	for name, bad := range wiretest.Framed(blob) {
		if err := NewPartial().UnmarshalBinary(bad); err == nil {
			t.Errorf("%s: corrupt partial blob accepted", name)
		}
	}

	// A blob an earlier release encoded from this same Partial
	// (testdata/partial.hex): the encoder must still produce it, and it
	// must decode and re-encode to the same bytes.
	pinned := wiretest.Pinned(t, "partial")
	if !bytes.Equal(blob, pinned) {
		t.Errorf("encoder output differs from the pinned blob")
	}
	old := NewPartial()
	if err := old.UnmarshalBinary(pinned); err != nil {
		t.Fatalf("pinned blob rejected: %v", err)
	}
	if re, _ := old.MarshalBinary(); !bytes.Equal(re, pinned) {
		t.Errorf("pinned blob re-encodes differently")
	}

	// A sketch of another capacity did not come from NewSketch, and
	// merging it would fold a subsample as if exact: decode refuses it.
	odd := NewPartial()
	small := stats.NewSketchSize(100)
	for i := 0; i < 200; i++ {
		small.Add(float64(i))
	}
	odd.sketches["a/0"] = small
	odd.sketchOrder = append(odd.sketchOrder, "a/0")
	if blob, err = odd.MarshalBinary(); err != nil {
		t.Fatalf("marshal: %v", err)
	}
	if err := NewPartial().UnmarshalBinary(blob); err == nil || !strings.Contains(err.Error(), "capacity 100") {
		t.Errorf("cap-100 sketch decoded: err = %v", err)
	}
}

// TestShardSpec covers the planner arithmetic.
func TestShardSpec(t *testing.T) {
	if err := (ShardSpec{}).Validate(); err != nil {
		t.Errorf("zero spec invalid: %v", err)
	}
	if err := (ShardSpec{Index: 2, Count: 4}).Validate(); err != nil {
		t.Errorf("2/4 invalid: %v", err)
	}
	for _, bad := range []ShardSpec{{Index: -1, Count: 4}, {Index: 4, Count: 4}, {Index: 1, Count: 0}} {
		if err := bad.Validate(); err == nil {
			t.Errorf("spec %+v accepted", bad)
		}
	}
	// Spans partition [0, n) in index order for every n and count.
	for _, n := range []int{0, 1, 5, 103} {
		for _, c := range []int{1, 2, 3, 7} {
			prev := 0
			for i := 0; i < c; i++ {
				lo, hi := ShardSpec{Index: i, Count: c}.span(n)
				if lo != prev || hi < lo {
					t.Fatalf("n=%d c=%d shard %d: span [%d,%d) not contiguous from %d", n, c, i, lo, hi, prev)
				}
				prev = hi
			}
			if prev != n {
				t.Fatalf("n=%d c=%d: spans cover %d", n, c, prev)
			}
		}
	}
}

// TestShardRegistry: unknown ids are rejected by every entry point, and
// a live experiment accumulates nothing.
func TestShardRegistry(t *testing.T) {
	if CanShard("no-such-experiment") {
		t.Error("CanShard accepts unknown id")
	}
	if err := Accumulate("no-such-experiment", Options{}, NewPartial()); err == nil {
		t.Error("Accumulate accepts unknown id")
	}
	if _, err := RenderPartial("no-such-experiment", Options{}, NewPartial()); err == nil {
		t.Error("RenderPartial accepts unknown id")
	}
	p := NewPartial()
	for _, e := range Experiments() {
		if e.Live {
			if err := Accumulate(e.ID, Options{}, p); err != nil {
				t.Errorf("accumulate %s: %v", e.ID, err)
			}
		}
	}
	if len(p.sketchOrder)+len(p.counterOrd)+len(p.doneOrder) != 0 {
		t.Error("a live experiment accumulated state")
	}
}
