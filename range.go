package uwpos

import (
	"context"
	"fmt"
	"math"

	"uwpos/internal/sim"
)

// RangeConfig describes a single two-device ranging exchange: two devices
// separated horizontally by SeparationM metres at the given depths in Env.
// This is the §2.2 primitive on its own — the companion smartphone ranging
// paper's scenario — without the group protocol around it.
type RangeConfig struct {
	Env *Environment
	// SeparationM is the horizontal separation in metres.
	SeparationM float64
	// DepthAM and DepthBM are the two devices' depths in metres
	// (default 2.5 each, the benchmark rig depth).
	DepthAM, DepthBM float64
	// Seed drives the exchange's randomness (default 1).
	Seed int64
}

// RangeOutcome reports one two-way exchange.
type RangeOutcome struct {
	// EstimatedM is the measured distance.
	EstimatedM float64
	// TrueM is the ground-truth distance (3D, including the depth delta).
	TrueM float64
}

// RangeBetween runs a single two-way acoustic ranging exchange. The
// exchange degrades like real acoustics: when either direction of the
// exchange is undetectable the returned error wraps ErrNotDetected and
// the outcome still carries the true distance, so callers can distinguish
// "bad acoustics" (degrade, retry, widen error bars) from caller mistakes
// (ConfigError) and from a cancelled or expired ctx.
func RangeBetween(ctx context.Context, cfg RangeConfig) (RangeOutcome, error) {
	if cfg.Env == nil {
		return RangeOutcome{}, ConfigError{Field: "Env", Reason: "nil environment"}
	}
	if err := cfg.Env.Validate(); err != nil {
		return RangeOutcome{}, ConfigError{Field: "Env", Reason: err.Error()}
	}
	if !(cfg.SeparationM > 0) || math.IsInf(cfg.SeparationM, 1) {
		return RangeOutcome{}, configErrf("SeparationM", "must be positive and finite, got %g", cfg.SeparationM)
	}
	if cfg.DepthAM == 0 {
		cfg.DepthAM = 2.5
	}
	if cfg.DepthBM == 0 {
		cfg.DepthBM = 2.5
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	nw, err := sim.NewNetwork(sim.TwoDeviceConfig(cfg.Env, cfg.SeparationM, cfg.DepthAM, cfg.DepthBM, cfg.Seed))
	if err != nil {
		// Env and SeparationM are valid, so the network rejected a depth
		// (device 0 is A, device 1 is B).
		return RangeOutcome{}, ConfigError{Field: "DepthAM/DepthBM", Reason: err.Error()}
	}
	res, err := nw.RangeOnce(ctx, sim.MethodDualMic)
	if err != nil {
		return RangeOutcome{}, err
	}
	out := RangeOutcome{EstimatedM: res.EstimatedM, TrueM: res.TrueM}
	if !res.Detected {
		out.EstimatedM = 0
		return out, fmt.Errorf("%w (separation %.1f m in %s)", ErrNotDetected, cfg.SeparationM, cfg.Env.Name)
	}
	return out, nil
}
