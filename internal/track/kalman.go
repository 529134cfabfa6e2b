// Package track implements the paper's §5 future-work direction:
// turning user-initiated localization rounds into continuous tracking by
// fusing successive acoustic fixes with a motion model, without running
// acoustics continuously.
//
// Each diver gets an independent constant-velocity Kalman filter over the
// horizontal plane (depth is measured directly each round, so it needs no
// filtering). The filter is deliberately small: state [x y vx vy], fix
// measurements [x y], closed-form 2×2 updates per axis — divers' axes are
// uncoupled under a constant-velocity model with isotropic noise.
package track

import (
	"fmt"
	"math"

	"uwpos/internal/geom"
)

// FilterConfig tunes the per-diver motion filter.
type FilterConfig struct {
	// ProcessAccel is the 1σ unmodelled acceleration (m/s²): how quickly
	// a diver can change velocity. Recreational divers: ~0.2.
	ProcessAccel float64
	// FixStd is the 1σ error of one acoustic fix (m). The paper's median
	// 2D error of ~0.9 m corresponds to σ ≈ 0.8.
	FixStd float64
	// MaxSpeed clamps velocity estimates (m/s); divers rarely exceed 1.
	MaxSpeed float64
}

func (c *FilterConfig) defaults() {
	if c.ProcessAccel == 0 {
		c.ProcessAccel = 0.2
	}
	if c.FixStd == 0 {
		c.FixStd = 0.8
	}
	if c.MaxSpeed == 0 {
		c.MaxSpeed = 1.5
	}
}

// axis is a 1D constant-velocity Kalman filter (position, velocity).
type axis struct {
	x, v float64
	// Covariance [[pxx pxv],[pxv pvv]].
	pxx, pxv, pvv float64
}

func (a *axis) predict(dt, accel float64) {
	a.x += a.v * dt
	// P = F P Fᵀ + Q with F = [[1 dt],[0 1]].
	pxx := a.pxx + dt*(a.pxv+a.pxv) + dt*dt*a.pvv
	pxv := a.pxv + dt*a.pvv
	// Piecewise-constant white acceleration model.
	q := accel * accel
	pxx += q * dt * dt * dt * dt / 4
	pxv += q * dt * dt * dt / 2
	a.pvv += q * dt * dt
	a.pxx, a.pxv = pxx, pxv
}

func (a *axis) update(z, r float64) {
	s := a.pxx + r*r
	kx := a.pxx / s
	kv := a.pxv / s
	innov := z - a.x
	a.x += kx * innov
	a.v += kv * innov
	// Joseph-free standard form (numerically fine at these scales).
	pxx := (1 - kx) * a.pxx
	pxv := (1 - kx) * a.pxv
	pvv := a.pvv - kv*a.pxv
	a.pxx, a.pxv, a.pvv = pxx, pxv, pvv
}

// Tracker fuses acoustic fixes for one diver.
type Tracker struct {
	cfg         FilterConfig
	ax, ay      axis
	depth       float64
	initialized bool
	lastT       float64
}

// NewTracker creates an uninitialized tracker; the first fix initializes
// the state.
func NewTracker(cfg FilterConfig) *Tracker {
	cfg.defaults()
	return &Tracker{cfg: cfg}
}

// Fix feeds one localization result taken at time t (seconds). Fixes must
// arrive in time order.
func (tr *Tracker) Fix(t float64, pos geom.Vec3) error {
	if math.IsNaN(pos.X) || math.IsNaN(pos.Y) {
		return fmt.Errorf("track: NaN fix")
	}
	if !tr.initialized {
		tr.ax = axis{x: pos.X, pxx: tr.cfg.FixStd * tr.cfg.FixStd, pvv: 1}
		tr.ay = axis{x: pos.Y, pxx: tr.cfg.FixStd * tr.cfg.FixStd, pvv: 1}
		tr.depth = pos.Z
		tr.initialized = true
		tr.lastT = t
		return nil
	}
	dt := t - tr.lastT
	if dt < 0 {
		return fmt.Errorf("track: fixes out of order (dt=%g)", dt)
	}
	tr.ax.predict(dt, tr.cfg.ProcessAccel)
	tr.ay.predict(dt, tr.cfg.ProcessAccel)
	tr.ax.update(pos.X, tr.cfg.FixStd)
	tr.ay.update(pos.Y, tr.cfg.FixStd)
	tr.clampSpeed()
	tr.depth = pos.Z
	tr.lastT = t
	return nil
}

func (tr *Tracker) clampSpeed() {
	sp := math.Hypot(tr.ax.v, tr.ay.v)
	if sp > tr.cfg.MaxSpeed {
		sc := tr.cfg.MaxSpeed / sp
		tr.ax.v *= sc
		tr.ay.v *= sc
	}
}

// PositionAt extrapolates the track to time t ≥ last fix.
func (tr *Tracker) PositionAt(t float64) (geom.Vec3, error) {
	if !tr.initialized {
		return geom.Vec3{}, fmt.Errorf("track: no fixes yet")
	}
	dt := t - tr.lastT
	if dt < 0 {
		dt = 0
	}
	return geom.Vec3{
		X: tr.ax.x + tr.ax.v*dt,
		Y: tr.ay.x + tr.ay.v*dt,
		Z: tr.depth,
	}, nil
}

// Velocity returns the current velocity estimate (m/s).
func (tr *Tracker) Velocity() geom.Vec2 { return geom.Vec2{X: tr.ax.v, Y: tr.ay.v} }

// Uncertainty returns the 1σ position uncertainty (m) at the last fix.
func (tr *Tracker) Uncertainty() float64 {
	if !tr.initialized {
		return math.Inf(1)
	}
	return math.Sqrt((tr.ax.pxx + tr.ay.pxx) / 2)
}

// GroupTracker fuses fixes for a whole dive group.
type GroupTracker struct {
	cfg      FilterConfig
	trackers map[int]*Tracker
}

// NewGroupTracker builds a tracker set.
func NewGroupTracker(cfg FilterConfig) *GroupTracker {
	cfg.defaults()
	return &GroupTracker{cfg: cfg, trackers: make(map[int]*Tracker)}
}

// Fix feeds one round's positions (indexed by device ID) at time t.
func (g *GroupTracker) Fix(t float64, positions []geom.Vec3) error {
	for id, p := range positions {
		tr, ok := g.trackers[id]
		if !ok {
			tr = NewTracker(g.cfg)
			g.trackers[id] = tr
		}
		if err := tr.Fix(t, p); err != nil {
			return fmt.Errorf("device %d: %w", id, err)
		}
	}
	return nil
}

// PositionsAt extrapolates every tracked diver to time t.
func (g *GroupTracker) PositionsAt(t float64) map[int]geom.Vec3 {
	out := make(map[int]geom.Vec3, len(g.trackers))
	for id, tr := range g.trackers {
		if p, err := tr.PositionAt(t); err == nil {
			out[id] = p
		}
	}
	return out
}

// Tracker returns the per-device filter (nil if the device has no fixes).
func (g *GroupTracker) Tracker(id int) *Tracker { return g.trackers[id] }
