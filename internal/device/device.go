// Package device describes the smart devices carried by divers: microphone
// geometry, speaker placement, underwater frequency response and clock
// quality. The catalog mirrors the hardware used in the paper's evaluation
// (Samsung Galaxy S9, Google Pixel, OnePlus, Apple Watch Ultra).
package device

import (
	"fmt"
	"math"

	"uwpos/internal/geom"
)

// Model identifies a hardware model with its acoustic personality.
type Model struct {
	Name string

	// MicOffsets are microphone positions in the device body frame,
	// metres. The body frame has +x out of the speaker-end of the device;
	// orientation maps it into the world frame. Phones: bottom mic near
	// the speaker, top mic ~16 cm away. Watch: 3-mic triangle.
	MicOffsets []geom.Vec3

	// SpeakerOffset is the speaker position in the body frame.
	SpeakerOffset geom.Vec3

	// BandLowHz/BandHighHz bound the usable underwater response.
	BandLowHz, BandHighHz float64

	// TXEfficiency scales transmitted amplitude (relative to S9 = 1).
	TXEfficiency float64

	// RXSensitivity scales microphone gain per mic (len == len(MicOffsets)).
	RXSensitivity []float64

	// MicNoiseRMS is the per-mic self-noise floor (hardware noise profile,
	// different per mic as §2.2 notes).
	MicNoiseRMS []float64

	// ClockSkewPPM is the typical magnitude of the audio clock error.
	ClockSkewPPM float64

	// BatteryWh is usable battery energy, for the §3.1 battery study.
	BatteryWh float64
}

// Validate checks internal consistency.
func (m *Model) Validate() error {
	if len(m.MicOffsets) == 0 {
		return fmt.Errorf("device %s: no microphones", m.Name)
	}
	if len(m.RXSensitivity) != len(m.MicOffsets) || len(m.MicNoiseRMS) != len(m.MicOffsets) {
		return fmt.Errorf("device %s: per-mic parameter lengths disagree", m.Name)
	}
	if m.BandHighHz <= m.BandLowHz {
		return fmt.Errorf("device %s: invalid band", m.Name)
	}
	return nil
}

// MicSeparation returns the largest pairwise mic distance — the d in the
// dual-mic direct-path constraint |n−m| ≤ d·fs/c.
func (m *Model) MicSeparation() float64 {
	var best float64
	for i := 0; i < len(m.MicOffsets); i++ {
		for j := i + 1; j < len(m.MicOffsets); j++ {
			if d := m.MicOffsets[i].Dist(m.MicOffsets[j]); d > best {
				best = d
			}
		}
	}
	return best
}

// GalaxyS9 returns the primary evaluation phone: two mics 16 cm apart,
// speaker at the bottom edge.
func GalaxyS9() *Model {
	return &Model{
		Name: "galaxy-s9",
		MicOffsets: []geom.Vec3{
			{X: 0.00, Y: 0, Z: 0},  // bottom mic, next to the speaker
			{X: -0.16, Y: 0, Z: 0}, // top mic
		},
		SpeakerOffset: geom.Vec3{X: 0.01, Y: 0, Z: 0},
		BandLowHz:     1000,
		BandHighHz:    5000,
		TXEfficiency:  1.0,
		RXSensitivity: []float64{1.0, 0.9},
		MicNoiseRMS:   []float64{0.0010, 0.0014},
		ClockSkewPPM:  40,
		BatteryWh:     11.55,
	}
}

// Pixel returns the Google Pixel model: slightly weaker TX underwater.
func Pixel() *Model {
	m := GalaxyS9()
	m.Name = "pixel"
	m.TXEfficiency = 0.85
	m.RXSensitivity = []float64{0.95, 0.85}
	m.MicNoiseRMS = []float64{0.0012, 0.0015}
	m.ClockSkewPPM = 60
	m.BatteryWh = 10.7
	return m
}

// OnePlus returns the OnePlus model: stronger speaker, noisier mics.
func OnePlus() *Model {
	m := GalaxyS9()
	m.Name = "oneplus"
	m.TXEfficiency = 1.1
	m.RXSensitivity = []float64{1.0, 0.95}
	m.MicNoiseRMS = []float64{0.0016, 0.0018}
	m.ClockSkewPPM = 55
	m.BatteryWh = 12.3
	return m
}

// WatchUltra returns the Apple Watch Ultra: a compact 3-mic triangle and a
// small speaker, smaller battery.
func WatchUltra() *Model {
	return &Model{
		Name: "watch-ultra",
		MicOffsets: []geom.Vec3{
			{X: 0.000, Y: 0.000, Z: 0},
			{X: -0.035, Y: 0.010, Z: 0},
			{X: -0.020, Y: -0.018, Z: 0},
		},
		SpeakerOffset: geom.Vec3{X: 0.005, Y: 0, Z: 0},
		BandLowHz:     1000,
		BandHighHz:    5000,
		TXEfficiency:  0.6,
		RXSensitivity: []float64{1.0, 0.95, 0.9},
		MicNoiseRMS:   []float64{0.0011, 0.0012, 0.0013},
		ClockSkewPPM:  30,
		BatteryWh:     2.1,
	}
}

// Orientation is the device attitude in the world frame.
type Orientation struct {
	AzimuthRad float64 // rotation of the body +x axis around world z
	PolarRad   float64 // tilt of the body +x axis from horizontal (0 = level)
}

// DirectivityGain returns the TX/RX gain for sound leaving/arriving along
// the world-frame direction dir (unit vector from this device towards the
// peer), given the device orientation. At 1–5 kHz underwater the
// wavelength (0.3–1.5 m) dwarfs a phone, so directivity is mild: ~0 dB
// on-axis, −2 dB broadside, −4.4 dB directly behind — consistent with the
// paper's moderate orientation sensitivity (Fig. 14a medians 0.54–1.25 m,
// dominated by surface proximity rather than aperture gain).
func (o Orientation) DirectivityGain(dir geom.Vec3) float64 {
	// Body +x axis in world frame.
	cp := math.Cos(o.PolarRad)
	axis := geom.Vec3{
		X: math.Cos(o.AzimuthRad) * cp,
		Y: math.Sin(o.AzimuthRad) * cp,
		Z: -math.Sin(o.PolarRad), // polar tilt raises the axis (−z is up)
	}
	c := axis.Dot(dir.Normalize())
	// Weak cardioid: g = 0.8 + 0.2·cosθ → 1.0 on-axis, 0.8 broadside,
	// 0.6 behind.
	return 0.8 + 0.2*c
}

// MicWorldPositions places the model's microphones in the world frame for
// a device centered at pos with the given orientation (rotation about the
// vertical axis plus polar tilt in the vertical plane of the azimuth).
func (m *Model) MicWorldPositions(pos geom.Vec3, o Orientation) []geom.Vec3 {
	out := make([]geom.Vec3, len(m.MicOffsets))
	for i, off := range m.MicOffsets {
		out[i] = pos.Add(rotate(off, o))
	}
	return out
}

// SpeakerWorldPosition places the speaker in the world frame.
func (m *Model) SpeakerWorldPosition(pos geom.Vec3, o Orientation) geom.Vec3 {
	return pos.Add(rotate(m.SpeakerOffset, o))
}

func rotate(v geom.Vec3, o Orientation) geom.Vec3 {
	// Tilt about the body y axis (polar), then rotate about world z.
	cp, sp := math.Cos(o.PolarRad), math.Sin(o.PolarRad)
	tilted := geom.Vec3{X: v.X*cp + v.Z*sp, Y: v.Y, Z: -v.X*sp + v.Z*cp}
	ca, sa := math.Cos(o.AzimuthRad), math.Sin(o.AzimuthRad)
	return geom.Vec3{X: tilted.X*ca - tilted.Y*sa, Y: tilted.X*sa + tilted.Y*ca, Z: tilted.Z}
}
