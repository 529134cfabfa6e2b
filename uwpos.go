// Package uwpos is an anchor-free underwater acoustic 3D positioning
// system for smart devices — a from-scratch Go reproduction of
// "Underwater 3D positioning on smart devices" (Chen, Chan, Gollakota,
// ACM SIGCOMM 2023).
//
// A dive group of N waterproof phones/watches runs a leader-initiated
// distributed timestamp protocol over 1–5 kHz acoustics. Pairwise
// distances fall out of two-way timestamp arithmetic; a weighted-SMACOF
// topology solve with rigidity-gated outlier rejection turns them into
// relative 2D positions; onboard depth sensors lift the result to 3D; the
// leader's pointing direction and a dual-microphone left/right vote
// resolve the rotation and mirror ambiguities.
//
// Two entry points:
//
//   - Localize: pure algorithm — bring your own distance matrix, depths
//     and mic signs (e.g. from real hardware) and get 3D positions.
//   - System: full simulated deployment — devices are placed in a
//     physical underwater environment and every stage runs end to end
//     (waveforms → multipath channel → microphone streams with skewed
//     clocks → detection/channel estimation → protocol → FSK reports →
//     localization).
package uwpos

import (
	"context"
	"fmt"

	"uwpos/internal/channel"
	"uwpos/internal/core"
	"uwpos/internal/device"
	"uwpos/internal/geom"
	"uwpos/internal/sim"
)

// Vec3 is a 3D position: x, y horizontal metres, z depth (positive down).
type Vec3 = geom.Vec3

// Vec2 is a horizontal-plane position.
type Vec2 = geom.Vec2

// Environment describes a water body. Use one of the presets or build a
// custom one.
type Environment = channel.Environment

// Preset environments from the paper's evaluation sites (Fig. 10).
var (
	Pool      = channel.Pool
	Dock      = channel.Dock
	Viewpoint = channel.Viewpoint
	Boathouse = channel.Boathouse
)

// EnvironmentByName resolves "pool", "dock", "viewpoint" or "boathouse".
func EnvironmentByName(name string) (*Environment, error) { return channel.ByName(name) }

// DeviceModel describes a phone/watch's acoustic hardware.
type DeviceModel = device.Model

// Device model catalog.
var (
	GalaxyS9   = device.GalaxyS9
	Pixel      = device.Pixel
	OnePlus    = device.OnePlus
	WatchUltra = device.WatchUltra
)

// Input is a set of measurements for pure-algorithm localization:
// the leader is device 0 and points at device 1.
type Input struct {
	// Distances is the N×N matrix of measured 3D pairwise distances (m).
	Distances [][]float64
	// Weights marks link availability: 0 = missing, >0 = measured.
	Weights [][]float64
	// Depths are per-device sensor depths (m).
	Depths []float64
	// MicSigns are the leader's dual-microphone side observations:
	// +1 if the right-of-pointing mic heard device i first, −1 for the
	// left, 0 unknown. May be nil (flip then stays unresolved).
	MicSigns []int
	// PointingBearing is the world bearing (rad) the leader faces.
	PointingBearing float64
}

// Position is one device's localization output.
type Position struct {
	Device int
	Pos    Vec3
}

// Result is the localization outcome.
type Result struct {
	// Positions are leader-relative 3D positions; index 0 is the leader.
	Positions []Position
	// ResidualStress is the normalized per-link RMS residual (m); values
	// above ~1.5 m indicate unresolved outliers.
	ResidualStress float64
	// DroppedLinks lists link pairs rejected as outliers.
	DroppedLinks [][2]int
}

// Localize runs projection → topology estimation with outlier detection →
// ambiguity resolution on caller-provided measurements (§2.1 of the
// paper). Device 0 must be the leader, device 1 the pointed diver.
//
// ctx bounds the solve: the outlier search (Algorithm 1) re-solves the
// topology once per candidate drop subset and honours cancellation between
// solves, so a server can put a deadline on even adversarial inputs.
func Localize(ctx context.Context, in Input) (*Result, error) {
	cr, err := core.Localize(ctx, core.Input{
		D:               in.Distances,
		W:               in.Weights,
		Depths:          in.Depths,
		MicSigns:        in.MicSigns,
		PointingBearing: in.PointingBearing,
	}, core.DefaultConfig())
	if err != nil {
		return nil, err
	}
	out := &Result{ResidualStress: cr.NormStress}
	for i, p := range cr.Positions {
		out.Positions = append(out.Positions, Position{Device: i, Pos: p})
	}
	for _, e := range cr.Dropped {
		out.DroppedLinks = append(out.DroppedLinks, [2]int{e.Low, e.High})
	}
	return out, nil
}

// Diver places one simulated device.
type Diver struct {
	Pos   Vec3
	Model *DeviceModel // nil = Galaxy S9
	// Velocity, if non-zero, moves the diver linearly during the round.
	Velocity Vec3
	// WatchGauge selects the dive-computer depth sensor instead of the
	// phone barometer.
	WatchGauge bool
}

// SystemConfig assembles a simulated deployment. Divers[0] is the leader;
// Divers[1] is the diver the leader points toward.
type SystemConfig struct {
	Env    *Environment
	Divers []Diver
	// Seed drives all simulation randomness (default 1).
	Seed int64
	// PointingErrorRad perturbs the leader's aim (ε_θ; the Fig. 16 study
	// measured ≈5° ≈ 0.087 rad for human divers).
	PointingErrorRad float64
	// OccludedLinks lists device pairs whose direct acoustic path is
	// blocked (outlier-producing, as in Fig. 19a).
	OccludedLinks [][2]int
	// DroppedLinks lists device pairs that cannot hear each other at all.
	DroppedLinks [][2]int
	// LosslessReports bypasses the FSK report-back compression (for
	// ablation; default false = full §2.4 communication system).
	LosslessReports bool
}

// System is a ready-to-run simulated deployment.
type System struct {
	cfg     SystemConfig
	network *sim.Network
	bearing float64
}

// NewSystem validates the configuration and builds the network.
func NewSystem(cfg SystemConfig) (*System, error) {
	if cfg.Env == nil {
		return nil, ConfigError{Field: "Env", Reason: "nil environment"}
	}
	if err := cfg.Env.Validate(); err != nil {
		return nil, ConfigError{Field: "Env", Reason: err.Error()}
	}
	if len(cfg.Divers) < 3 {
		return nil, fmt.Errorf("%w (got %d); with two, use RangeBetween", ErrTooFewDivers, len(cfg.Divers))
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	specs := make([]sim.DeviceSpec, len(cfg.Divers))
	for i, d := range cfg.Divers {
		m := d.Model
		if m == nil {
			m = device.GalaxyS9()
		}
		specs[i] = sim.DeviceSpec{Model: m, Pos: d.Pos, WatchGauge: d.WatchGauge}
		if (d.Velocity != Vec3{}) {
			specs[i].Traj = sim.Linear(d.Pos, d.Velocity)
		}
	}
	orient, bearing := sim.LeaderOrientation(cfg.Divers[0].Pos, cfg.Divers[1].Pos, cfg.PointingErrorRad)
	specs[0].Orient = orient
	nwCfg := sim.Config{
		Env:               cfg.Env,
		Devices:           specs,
		Seed:              cfg.Seed,
		DisableReportBack: cfg.LosslessReports,
	}
	for _, p := range cfg.OccludedLinks {
		nwCfg.Faults = append(nwCfg.Faults, sim.LinkFault{A: p[0], B: p[1], DirectAtt: 0.03})
	}
	for _, p := range cfg.DroppedLinks {
		nwCfg.Faults = append(nwCfg.Faults, sim.LinkFault{A: p[0], B: p[1], Drop: true})
	}
	nw, err := sim.NewNetwork(nwCfg)
	if err != nil {
		// The environment is valid, so the network rejected the divers:
		// a position outside the water column, a group too large for
		// the report phase, or a link naming no diver.
		return nil, ConfigError{Field: "Divers", Reason: err.Error()}
	}
	return &System{cfg: cfg, network: nw, bearing: bearing}, nil
}

// RoundOutcome reports one full protocol round of a simulated system.
type RoundOutcome struct {
	Result *Result
	// Distances and Weights are the leader's pairwise estimates.
	Distances, Weights [][]float64
	// LatencySec is the observed protocol round time.
	LatencySec float64
	// Err2D/Err3D are per-device errors vs ground truth (sim-only).
	Err2D, Err3D []float64
}

// Locate runs one complete round: protocol, acoustics, reports and
// localization.
//
// ctx carries the round's deadline and cancellation down into the
// simulated protocol execution: the round checks it at stage boundaries
// (calibration, per-device receiver processing, report decoding, topology
// solves), so a cancelled or expired context aborts within one device's
// processing step and Locate returns the context's error. Concurrent
// Locate calls on one System are not safe — the underlying network owns
// mutable per-round state; serialize per System (the service layer does).
func (s *System) Locate(ctx context.Context) (*RoundOutcome, error) {
	round, err := s.network.RunRound(ctx)
	if err != nil {
		return nil, err
	}
	loc, err := s.network.LocalizeRound(ctx, round, s.bearing, core.DefaultConfig())
	if err != nil {
		return nil, err
	}
	res := &Result{ResidualStress: loc.Core.NormStress}
	for i, p := range loc.Core.Positions {
		res.Positions = append(res.Positions, Position{Device: i, Pos: p})
	}
	for _, e := range loc.Core.Dropped {
		res.DroppedLinks = append(res.DroppedLinks, [2]int{e.Low, e.High})
	}
	return &RoundOutcome{
		Result:     res,
		Distances:  round.D,
		Weights:    round.W,
		LatencySec: round.Latency,
		Err2D:      loc.Err2D,
		Err3D:      loc.Err3D,
	}, nil
}
