package ingest

import (
	"time"

	"uwpos/internal/stats"
)

// Meter aggregates per-buffer deadline headroom for ingest pipelines. The
// unit of account is the real-time factor (RTF): a buffer's processing
// time divided by its audio duration. An RTF of 1.0 means processing
// exactly keeps up with capture; the budget is an RTF ceiling (default
// 1.0 — SNIPPETS' embedded exemplar budgets its loop the same way, as a
// fraction of the buffer period) and every buffer above it counts as a
// deadline miss. Per-buffer RTFs stream into a stats.Sketch, so
// percentile reports stay O(1) in memory at any buffer count.
//
// One Meter may be shared across the pipelines of a round (detection,
// calibration, baselines) and across rounds, aggregating a workload-wide
// headroom distribution. Observations use the monotonic clock; a Meter is
// not safe for concurrent use.
type Meter struct {
	budgetRTF float64
	sketch    *stats.Sketch

	buffers  int
	samples  int
	audioSec float64
	procSec  float64
	maxRTF   float64
	misses   int

	// now is the clock, injectable for tests.
	now func() time.Time
}

// NewMeter builds a meter with the given budget as a real-time-factor
// ceiling; non-positive means the default budget of 1.0 (processing must
// keep up with capture — each buffer within its own duration).
func NewMeter(budgetRTF float64) *Meter {
	if budgetRTF <= 0 {
		budgetRTF = 1.0
	}
	s := stats.NewSketch()
	s.Reserve() // steady-state Add must not allocate
	return &Meter{budgetRTF: budgetRTF, sketch: s, now: time.Now}
}

// observe records one buffer: n samples of audioSec seconds, whose
// processing started at t0, counting a miss when its RTF is over budget.
// Empty buffers tick no accounting (their RTF is undefined).
func (m *Meter) observe(n int, audioSec float64, t0 time.Time) {
	if n <= 0 {
		return
	}
	dt := m.now().Sub(t0).Seconds()
	rtf := dt / audioSec
	m.sketch.Add(rtf)
	if rtf > m.maxRTF {
		m.maxRTF = rtf
	}
	if rtf > m.budgetRTF {
		m.misses++
	}
	m.buffers++
	m.samples += n
	m.audioSec += audioSec
	m.procSec += dt
}

// DeadlineReport summarizes a meter: totals, the budget, per-buffer RTF
// percentiles and the miss count.
type DeadlineReport struct {
	Buffers      int     // buffers observed
	Samples      int     // total samples observed
	AudioSeconds float64 // total audio duration processed
	ProcSeconds  float64 // total processing wall time
	BudgetRTF    float64 // the per-buffer budget, as a real-time factor
	P50RTF       float64 // median per-buffer RTF
	P90RTF       float64
	P99RTF       float64
	MaxRTF       float64 // worst buffer
	Misses       int     // buffers over budget
}

// Report computes the current summary. Percentiles are NaN while no
// buffer has been observed.
func (m *Meter) Report() DeadlineReport {
	qs := m.sketch.Quantiles(50, 90, 99)
	return DeadlineReport{
		Buffers:      m.buffers,
		Samples:      m.samples,
		AudioSeconds: m.audioSec,
		ProcSeconds:  m.procSec,
		BudgetRTF:    m.budgetRTF,
		P50RTF:       qs[0],
		P90RTF:       qs[1],
		P99RTF:       qs[2],
		MaxRTF:       m.maxRTF,
		Misses:       m.misses,
	}
}
