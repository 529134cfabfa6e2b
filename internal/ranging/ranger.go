package ranging

import (
	"fmt"

	"uwpos/internal/sig"
)

// TOAResult is a refined time-of-arrival estimate for one preamble.
type TOAResult struct {
	Detection  Detection
	ArrivalIdx float64 // direct-path arrival, fractional sample index in the stream
	MicSign    int     // sign(m−n) for flipping disambiguation (+1: mic 1 first)
	DualMicOK  bool    // whether the joint search succeeded (else fallback)
}

// Ranger is the full §2.2 receiver: detection, LS channel estimation on
// both microphones and the joint direct-path search. One Ranger per
// receiving device.
type Ranger struct {
	Detector  *Detector
	Estimator *ChannelEstimator
	// EstimatorB is a second estimator instance reserved for the second
	// microphone stream (estimators carry scratch state).
	EstimatorB *ChannelEstimator
	DPConfig   DirectPathConfig
}

// NewRanger assembles a receiver for the given numerology.
func NewRanger(p sig.Params, det DetectorConfig, dp DirectPathConfig) *Ranger {
	return &Ranger{
		Detector:   NewDetector(p, det),
		Estimator:  NewChannelEstimator(p),
		EstimatorB: NewChannelEstimator(p),
		DPConfig:   dp,
	}
}

// Refine runs channel estimation and the direct-path search for an
// already-detected set — the receiver back half, split out so callers
// that detect incrementally (a StreamDetector fed from audio-buffer
// chunks) can hand their detections to the same refinement pipeline.
// The detections must refer to sample indices of mic1.
func (r *Ranger) Refine(mic1, mic2 []float64, dets []Detection) ([]TOAResult, error) {
	out := make([]TOAResult, 0, len(dets))
	for _, det := range dets {
		res, err := r.RefineArrival(mic1, mic2, det)
		if err != nil {
			continue // unrectifiable edge detection: skip, as the app would
		}
		out = append(out, res)
	}
	if len(out) == 0 && len(dets) > 0 {
		return nil, fmt.Errorf("ranging: %d detections but none refinable", len(dets))
	}
	return out, nil
}

// RefineArrival runs channel estimation + direct-path search for one
// detection. The returned arrival index is in mic1's sample timeline.
func (r *Ranger) RefineArrival(mic1, mic2 []float64, det Detection) (TOAResult, error) {
	h1, err := r.Estimator.Estimate(mic1, det.CoarseIndex)
	if err != nil {
		return TOAResult{}, err
	}
	guard := float64(r.Estimator.GuardTaps)
	if mic2 == nil {
		sp := SingleMicDirectPath(h1)
		if !sp.OK {
			return TOAResult{}, fmt.Errorf("ranging: no direct path found")
		}
		return TOAResult{
			Detection:  det,
			ArrivalIdx: float64(det.CoarseIndex) - guard + sp.TauTaps,
		}, nil
	}
	h2, err := r.EstimatorB.Estimate(mic2, det.CoarseIndex)
	if err != nil {
		return TOAResult{}, err
	}
	dp := JointDirectPath(h1, h2, r.DPConfig)
	if dp.OK {
		return TOAResult{
			Detection:  det,
			ArrivalIdx: float64(det.CoarseIndex) - guard + dp.TauTaps,
			MicSign:    MicOffsetSign(dp),
			DualMicOK:  true,
		}, nil
	}
	// Fallback: single-mic on the primary stream.
	sp := SingleMicDirectPath(h1)
	if !sp.OK {
		return TOAResult{}, fmt.Errorf("ranging: no direct path on either mic")
	}
	return TOAResult{
		Detection:  det,
		ArrivalIdx: float64(det.CoarseIndex) - guard + sp.TauTaps,
	}, nil
}
