package ingest_test

import (
	"testing"

	"uwpos/internal/dsp"
	"uwpos/internal/ingest"
	"uwpos/internal/sig"
)

// benchPipeline builds a three-template pipeline with n argmax consumers
// and returns it with a 4096-sample noise buffer.
func benchPipeline(consumers int) (*ingest.Pipeline, []float64) {
	bank := testBank(44100)
	pipe := ingest.New(ingest.Config{Bank: bank})
	for i := 0; i < consumers; i++ {
		pipe.Register(ingest.NewArgMax(i % bank.Len()))
	}
	return pipe, noiseStream(4096, 17)
}

// BenchmarkIngestPush measures the steady-state per-buffer cost of the
// shared scan with three consumers riding it.
func BenchmarkIngestPush(b *testing.B) {
	pipe, chunk := benchPipeline(3)
	for i := 0; i < 32; i++ {
		pipe.Push(chunk) // warmup: size the block scratch
	}
	b.SetBytes(int64(len(chunk) * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pipe.Push(chunk)
	}
}

// BenchmarkIngestPushMetered adds the deadline meter: the delta over
// BenchmarkIngestPush is the accounting overhead (two clock reads and one
// sketch insert per buffer).
func BenchmarkIngestPushMetered(b *testing.B) {
	bank := testBank(44100)
	pipe := ingest.New(ingest.Config{
		Bank:       bank,
		SampleRate: 44100,
		Meter:      ingest.NewMeter(1.0),
	})
	pipe.Register(ingest.NewArgMax(0))
	chunk := noiseStream(4096, 17)
	for i := 0; i < 32; i++ {
		pipe.Push(chunk)
	}
	b.SetBytes(int64(len(chunk) * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pipe.Push(chunk)
	}
}

// BenchmarkIngestPushPrefiltered adds the streaming band-pass in front of
// the shared scan — the full detection front end.
func BenchmarkIngestPushPrefiltered(b *testing.B) {
	bank := testBank(44100)
	pipe := ingest.New(ingest.Config{
		Bank:      bank,
		Prefilter: sig.BandLimitFIR(1000, 5000, 44100),
	})
	pipe.Register(ingest.NewArgMax(0))
	chunk := noiseStream(4096, 17)
	for i := 0; i < 32; i++ {
		pipe.Push(chunk)
	}
	b.SetBytes(int64(len(chunk) * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pipe.Push(chunk)
	}
}

// BenchmarkIngestSharedVsIndependent contrasts one shared scan feeding
// three consumers against three independent single-consumer pipelines
// over the same stream — the cost the unified ingest path removes.
func BenchmarkIngestSharedVsIndependent(b *testing.B) {
	stream := noiseStream(1<<18, 23)
	run := func(b *testing.B, pipes int, consumersEach int) {
		b.SetBytes(int64(len(stream) * 8))
		for i := 0; i < b.N; i++ {
			for p := 0; p < pipes; p++ {
				pipe, _ := benchPipeline(consumersEach)
				for off := 0; off < len(stream); off += 4096 {
					pipe.Push(stream[off:min(off+4096, len(stream))])
				}
				pipe.Close()
			}
		}
	}
	b.Run("shared3", func(b *testing.B) { run(b, 1, 3) })
	b.Run("independent3", func(b *testing.B) { run(b, 3, 1) })
	_ = dsp.BankForwardTransforms() // keep the instrumentation linked
}
