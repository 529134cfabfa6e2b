package experiments

import (
	"context"
	"fmt"

	"uwpos/internal/channel"
	"uwpos/internal/ingest"
	"uwpos/internal/sim"
	"uwpos/internal/stats"
)

// runIngest profiles the real-time ingest path under full protocol rounds:
// every receiver-side scan of a round (message detection, calibration,
// baselines when exercised) runs through ingest pipelines fed at audio-
// callback cadence, and a shared deadline meter accounts each buffer's
// processing time against its real-time budget (budget = the buffer's
// own audio duration, RTF 1.0). The table reports, per ingest buffer
// size, the aggregated per-buffer real-time-factor distribution and the
// deadline miss count — the answer to "would this pipeline hold up on
// the phone at this buffer grain".
//
// Buffer/audio totals are deterministic in the seed; the RTF columns are
// wall-clock measurements and vary run to run (machine-dependent, not
// compared against baselines). Rounds run serially: the meter reads a
// monotonic clock per buffer and deliberately has no locking.
func runIngest(opt Options) *stats.Table {
	rounds := opt.samples(2)
	if opt.Quick {
		rounds = 1
	}
	table := &stats.Table{
		ID:    "ingest",
		Title: "real-time ingest: per-buffer deadline headroom by buffer size",
		Header: []string{"chunk", "budget ms", "rounds", "buffers", "audio s",
			"p50 RTF", "p90 RTF", "p99 RTF", "max RTF", "misses"},
		Notes: "RTF = processing time / buffer audio duration; budget RTF 1.0 " +
			"(keep up with capture). RTF columns are wall-clock and vary run to " +
			"run; buffer counts are deterministic in the seed.",
	}
	fs := 44100.0
	for _, chunk := range []int{1024, 4096, 16384} {
		meter := ingest.NewMeter(1.0)
		for r := 0; r < rounds; r++ {
			cfg := testbed(channel.Dock(), opt.seed()+saltIngest+int64(r))
			cfg.IngestChunk = chunk
			cfg.IngestMeter = meter
			nw, err := sim.NewNetwork(cfg)
			if err != nil {
				table.Notes += "; ERROR: " + err.Error()
				return table
			}
			if _, err := nw.RunRound(context.Background()); err != nil {
				table.Notes += "; ERROR: " + err.Error()
				return table
			}
			opt.observe(float64(meter.Report().Buffers))
		}
		r := meter.Report()
		table.Rows = append(table.Rows, []string{
			fmt.Sprintf("%d", chunk),
			stats.F(float64(chunk) / fs * 1e3),
			fmt.Sprintf("%d", rounds),
			fmt.Sprintf("%d", r.Buffers),
			stats.F(r.AudioSeconds),
			stats.F(r.P50RTF),
			stats.F(r.P90RTF),
			stats.F(r.P99RTF),
			stats.F(r.MaxRTF),
			fmt.Sprintf("%d", r.Misses),
		})
	}
	return table
}
