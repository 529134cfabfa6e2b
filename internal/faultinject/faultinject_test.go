package faultinject

import (
	"testing"
	"time"
)

// TestNilInjectorInert: every hook on a nil injector reports no fault.
func TestNilInjectorInert(t *testing.T) {
	var in *Injector
	if err := in.WriteError("snapshot"); err != nil {
		t.Error("nil injector produced a write error")
	}
	if in.RoundLatency() != 0 {
		t.Error("nil injector produced latency")
	}
	if in.DropAnchors() {
		t.Error("nil injector dropped anchors")
	}
	if in.Kill("commit") {
		t.Error("nil injector killed")
	}
	if in.Fired(FaultWrite) != 0 {
		t.Error("nil injector counted fires")
	}
}

// TestArmedOneShots: armed faults fire exactly n times, then disarm.
func TestArmedOneShots(t *testing.T) {
	in := New(Config{})
	in.FailNextWrite()
	if err := in.WriteError("snapshot"); err == nil {
		t.Fatal("armed write fault did not fire")
	}
	if err := in.WriteError("snapshot"); err != nil {
		t.Fatal("write fault fired twice after one arm")
	}

	in.Arm(FaultDropAnchors, 3)
	fires := 0
	for i := 0; i < 10; i++ {
		if in.DropAnchors() {
			fires++
		}
	}
	if fires != 3 {
		t.Fatalf("Arm(3) fired %d times", fires)
	}
	if got := in.Fired(FaultDropAnchors); got != 3 {
		t.Fatalf("Fired reports %d", got)
	}

	in.Arm(FaultKill, 1)
	if !in.Kill("round-commit") {
		t.Fatal("armed kill did not fire")
	}
	if in.Kill("round-commit") {
		t.Fatal("kill fired twice")
	}

	in.Arm(FaultRoundLatency, 1)
	if in.RoundLatency() != 50*time.Millisecond {
		t.Fatal("default round latency wrong")
	}
}

// TestSeededScheduleDeterminism: the same seed and consultation order
// produce the identical fault schedule; a different seed produces a
// different one (overwhelmingly likely at these counts).
func TestSeededScheduleDeterminism(t *testing.T) {
	schedule := func(seed int64) []bool {
		in := New(Config{Seed: seed, WriteErrorRate: 0.3})
		out := make([]bool, 200)
		for i := range out {
			out[i] = in.WriteError("snapshot") != nil
		}
		return out
	}
	a, b := schedule(11), schedule(11)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at consultation %d", i)
		}
	}
	c := schedule(12)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical 200-step schedules")
	}
	fires := 0
	for _, f := range a {
		if f {
			fires++
		}
	}
	if fires < 30 || fires > 90 {
		t.Fatalf("rate 0.3 over 200 consultations fired %d times", fires)
	}
}

// TestRatesAreIndependentStreams: consultations of one class do not
// perturb another class's armed state, and counters stay per-class.
func TestPerClassCounters(t *testing.T) {
	in := New(Config{Seed: 5, WriteErrorRate: 1.0})
	in.Arm(FaultKill, 2)
	for i := 0; i < 4; i++ {
		in.WriteError("snapshot")
	}
	if got := in.Fired(FaultWrite); got != 4 {
		t.Fatalf("write fired %d, want 4", got)
	}
	if got := in.Fired(FaultKill); got != 0 {
		t.Fatalf("kill fired %d before consultation", got)
	}
	if !in.Kill("a") || !in.Kill("b") || in.Kill("c") {
		t.Fatal("armed kill schedule wrong")
	}
}

func TestFaultString(t *testing.T) {
	if FaultWrite.String() != "write" || FaultKill.String() != "kill" {
		t.Fatal("fault names wrong")
	}
	if Fault(99).String() != "fault(99)" {
		t.Fatal("out-of-range fault name wrong")
	}
}
