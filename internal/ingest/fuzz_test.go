package ingest_test

import (
	"slices"
	"testing"

	"uwpos/internal/dsp"
	"uwpos/internal/ingest"
)

// FuzzIngestPipeline fuzzes stream content, buffer-partition points and
// the consumer set against the one-chunk bank scan: every template's
// collected correlation must be bit-identical for any partition, the
// argmax consumer must agree with a forward scan of the one-chunk array,
// and the forward-transform count must not depend on how many consumers
// ride the pipeline. Templates are prefixes of the stream itself so the
// fuzzer controls correlation structure (ties, plateaus, constants)
// directly through the input bytes.
func FuzzIngestPipeline(f *testing.F) {
	f.Add([]byte{5, 3, 2, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17})
	f.Add(append([]byte{60, 7, 1}, make([]byte, 500)...)) // constant signal
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 24 {
			t.Skip()
		}
		header, body := data[:3], data[3:]
		x := make([]float64, len(body))
		for i, b := range body {
			x[i] = (float64(b) - 128) / 128
		}
		// Two templates of fuzz-chosen lengths; a bank requires non-empty
		// templates shorter than the stream.
		h0 := 1 + int(header[0])%(len(x)/2)
		h1 := 1 + int(header[1])%(len(x)/2)
		bank := dsp.NewMatcherBank(dsp.NewMatcher(x[:h0]), dsp.NewMatcher(x[:h1]))
		want := scanOneChunk(bank, x)

		// Buffer boundaries straight from the fuzz input: up to 7 cuts,
		// including empty buffers via repeated cut points.
		nc := int(header[2]) % 8
		cuts := make([]int, 0, nc)
		for k := 0; k < nc && k < len(body); k++ {
			cuts = append(cuts, int(body[k])*len(x)/256)
		}
		slices.Sort(cuts)

		// Consumer-set size also comes from the input; the transform count
		// must not change with it.
		ncons := 1 + int(header[2])%3
		pipe := ingest.New(ingest.Config{Bank: bank})
		cols := make([]*ingest.Collect, bank.Len())
		for i := range cols {
			cols[i] = ingest.NewCollect(i, 0)
			pipe.Register(cols[i])
		}
		arg := ingest.NewArgMax(0)
		pipe.Register(arg)
		for i := 0; i < ncons; i++ {
			pipe.Register(ingest.NewArgMax(1))
		}
		before := dsp.BankForwardTransforms()
		prev := 0
		for _, c := range cuts {
			pipe.Push(x[prev:c])
			prev = c
		}
		pipe.Push(x[prev:])
		pipe.Close()
		scans := dsp.BankForwardTransforms() - before

		for i, col := range cols {
			got := col.Corr()
			if len(got) != len(want[i]) {
				t.Fatalf("template %d: %d lags, want %d", i, len(got), len(want[i]))
			}
			for j := range got {
				if got[j] != want[i][j] && !(got[j] != got[j] && want[i][j] != want[i][j]) {
					t.Fatalf("cuts %v template %d lag %d: %v != %v", cuts, i, j, got[j], want[i][j])
				}
			}
		}
		// Forward argmax over the one-chunk array (strict-greater, first
		// maximum, NaN-proof) must match the streaming consumer.
		wantBest, wantIdx := 0.0, -1
		for j, v := range want[0] {
			if wantIdx < 0 || v > wantBest {
				if v == v {
					wantBest, wantIdx = v, j
				}
			}
		}
		if idx, _ := arg.Best(); idx != wantIdx {
			t.Fatalf("cuts %v: argmax %d, one-chunk %d", cuts, idx, wantIdx)
		}
		// One forward transform per block, independent of the consumer set:
		// re-run with a single consumer and compare.
		solo := ingest.New(ingest.Config{Bank: bank})
		solo.Register(ingest.NewArgMax(0))
		before = dsp.BankForwardTransforms()
		solo.Push(x)
		solo.Close()
		if soloScans := dsp.BankForwardTransforms() - before; scans != soloScans {
			t.Fatalf("%d consumers cost %d transforms, 1 consumer costs %d", 3+ncons, scans, soloScans)
		}
	})
}
