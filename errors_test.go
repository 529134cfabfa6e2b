package uwpos

import (
	"context"
	"errors"
	"math"
	"testing"
)

// The service layer branches on error class with errors.Is/As to pick HTTP
// status codes; these tests pin the public error contract it relies on.

func TestConfigErrorAs(t *testing.T) {
	cases := []struct {
		name  string
		err   error
		field string
	}{
		{"nil env system", func() error {
			_, err := NewSystem(SystemConfig{})
			return err
		}(), "Env"},
		{"nil env range", func() error {
			_, err := RangeBetween(context.Background(), RangeConfig{SeparationM: 10})
			return err
		}(), "Env"},
		{"non-positive separation", func() error {
			_, err := RangeBetween(context.Background(), RangeConfig{Env: Dock()})
			return err
		}(), "SeparationM"},
		{"empty tracker round", NewGroupTracker(TrackerConfig{}).AddRound(0, nil), "Result"},
		{"invalid env system", func() error {
			_, err := NewSystem(SystemConfig{Env: &Environment{}, Divers: make([]Diver, 3)})
			return err
		}(), "Env"},
		{"diver below the bottom", func() error {
			_, err := NewSystem(SystemConfig{Env: Pool(), Divers: []Diver{
				{Pos: Vec3{Z: 1}}, {Pos: Vec3{X: 5, Z: 1}}, {Pos: Vec3{X: 8, Z: 40}},
			}})
			return err
		}(), "Divers"},
		{"group too large for the report phase", func() error {
			divers := make([]Diver, 14)
			for i := range divers {
				divers[i].Pos = Vec3{X: float64(3 * i), Z: 2}
			}
			_, err := NewSystem(SystemConfig{Env: Dock(), Divers: divers})
			return err
		}(), "Divers"},
		{"NaN separation", func() error {
			_, err := RangeBetween(context.Background(), RangeConfig{Env: Dock(), SeparationM: math.NaN()})
			return err
		}(), "SeparationM"},
		{"depth below the bottom", func() error {
			_, err := RangeBetween(context.Background(), RangeConfig{Env: Pool(), SeparationM: 5, DepthBM: 40})
			return err
		}(), "DepthAM/DepthBM"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.err == nil {
				t.Fatal("expected error")
			}
			var ce ConfigError
			if !errors.As(tc.err, &ce) {
				t.Fatalf("not a ConfigError: %v", tc.err)
			}
			if ce.Field != tc.field {
				t.Errorf("field %q, want %q (%v)", ce.Field, tc.field, tc.err)
			}
		})
	}
}

func TestErrTooFewDivers(t *testing.T) {
	_, err := NewSystem(SystemConfig{Env: Dock(), Divers: []Diver{{}, {}}})
	if !errors.Is(err, ErrTooFewDivers) {
		t.Errorf("want ErrTooFewDivers, got %v", err)
	}
}

func TestErrNotDetected(t *testing.T) {
	// 500 m in a shallow dock is far beyond acoustic reach.
	_, err := RangeBetween(context.Background(), RangeConfig{Env: Dock(), SeparationM: 500, Seed: 3})
	if !errors.Is(err, ErrNotDetected) {
		t.Errorf("RangeBetween: want ErrNotDetected, got %v", err)
	}
}

func TestRangeBetweenCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RangeBetween(ctx, RangeConfig{Env: Dock(), SeparationM: 10, Seed: 1})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("want context.Canceled, got %v", err)
	}
}

func trackerRound(devices ...int) *Result {
	res := &Result{}
	for _, d := range devices {
		res.Positions = append(res.Positions, Position{Device: d, Pos: Vec3{X: float64(d)}})
	}
	return res
}

func TestAddRoundOutOfOrder(t *testing.T) {
	g := NewGroupTracker(TrackerConfig{})
	if err := g.AddRound(10, trackerRound(0, 1, 2)); err != nil {
		t.Fatal(err)
	}
	err := g.AddRound(5, trackerRound(0, 1, 2))
	if !errors.Is(err, ErrRoundOutOfOrder) {
		t.Fatalf("want ErrRoundOutOfOrder, got %v", err)
	}
	// The bad round must not have advanced the clock: t=10 is still legal.
	if err := g.AddRound(10, trackerRound(0, 1, 2)); err != nil {
		t.Errorf("equal timestamp after rejected round: %v", err)
	}
}

func TestAddRoundDeviceIndexGap(t *testing.T) {
	cases := []struct {
		name string
		res  *Result
	}{
		{"out of range", trackerRound(0, 1, 3)},
		{"duplicate", trackerRound(0, 1, 1)},
		{"negative", trackerRound(-1, 0, 1)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := NewGroupTracker(TrackerConfig{})
			err := g.AddRound(0, tc.res)
			if !errors.Is(err, ErrDeviceIndexGap) {
				t.Fatalf("want ErrDeviceIndexGap, got %v", err)
			}
			// A rejected first round leaves the tracker unseeded: any
			// timestamp (even negative) must still be accepted.
			if err := g.AddRound(-5, trackerRound(0, 1, 2)); err != nil {
				t.Errorf("tracker state mutated by rejected round: %v", err)
			}
		})
	}
}
