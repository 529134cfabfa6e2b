package main

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"sort"
	"time"
)

// minBeyond is the number of samples that must lie strictly above a
// percentile before a run reports it: a p99 needs at least 1,000 samples,
// a p90 at least 100 and a median at least 20.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile of sorted and
// whether it may be reported, i.e. whether at least minBeyond samples lie
// beyond it. sorted must be in ascending order.
func percentile(sorted []float64, p float64) (float64, bool) {
	n := len(sorted)
	if n == 0 {
		return math.NaN(), false
	}
	k := int(math.Ceil(p / 100 * float64(n)))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return sorted[k-1], n-k >= minBeyond
}

// samplesFor returns the fewest samples that make the p-th percentile
// reportable.
func samplesFor(p float64) int {
	n := minBeyond + 1
	for n-int(math.Ceil(p/100*float64(n))) < minBeyond {
		n++
	}
	return n
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count) without reporting rules; it is used for set-up
// times and per-layer figures, not for latency percentiles.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// millis converts durations to sorted milliseconds.
func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e6
	}
	sort.Float64s(out)
	return out
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func sumDur(ds []time.Duration) float64 {
	var s time.Duration
	for _, d := range ds {
		s += d
	}
	return s.Seconds()
}

func scale(xs []float64, k float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = k * x
	}
	return out
}

// meanMetric is a per-layer mean with its sample count.
func meanMetric(name string, xs []float64, unit, note string) metric {
	if len(xs) == 0 {
		return metric{name: name, value: math.NaN(), unit: unit, note: "no samples"}
	}
	return metric{name: name, value: sum(xs) / float64(len(xs)), unit: unit,
		note: fmt.Sprintf("mean of %d; %s", len(xs), note)}
}

// digest hashes outputs bit for bit (FNV-1a), so two commits can be
// compared for identical results.
type digest struct{ h hash.Hash64 }

func newDigest() *digest { return &digest{fnv.New64a()} }

func (d *digest) floats(vs ...float64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		d.h.Write(b[:])
	}
}

func (d *digest) ints(vs ...int) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], uint64(int64(v)))
		d.h.Write(b[:])
	}
}

func (d *digest) sum() string { return fmt.Sprintf("%016x", d.h.Sum64()) }
