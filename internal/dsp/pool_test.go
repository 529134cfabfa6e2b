package dsp

import (
	"sync"
	"testing"
)

func TestPoolRoundTripZeroed(t *testing.T) {
	for _, n := range []int{1, 2, 3, 64, 1000, 4097} {
		s := GetC128(n)
		if len(s) != n {
			t.Fatalf("len %d, want %d", len(s), n)
		}
		for i := range s {
			s[i] = complex(1, 1)
		}
		PutC128(s)
		s2 := GetC128(n)
		for i, v := range s2 {
			if v != 0 {
				t.Fatalf("n=%d: reused buffer not zeroed at %d", n, i)
			}
		}
		PutC128(s2)

		f := GetF64(n)
		if len(f) != n {
			t.Fatalf("f64 len %d, want %d", len(f), n)
		}
		for i := range f {
			f[i] = 1
		}
		PutF64(f)
		f2 := GetF64(n)
		for i, v := range f2 {
			if v != 0 {
				t.Fatalf("n=%d: reused f64 buffer not zeroed at %d", n, i)
			}
		}
		PutF64(f2)
	}
}

func TestPoolForeignBufferIgnored(t *testing.T) {
	// A buffer whose capacity is not a pooled class must be dropped, not
	// poison the pool.
	odd := make([]float64, 10, 10)
	PutF64(odd)
	s := GetF64(10)
	if len(s) != 10 {
		t.Fatalf("len %d", len(s))
	}
}

func TestPoolConcurrentUse(t *testing.T) {
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				a := GetC128(1 << (i % 12))
				b := GetF64(100 + i)
				PutC128(a)
				PutF64(b)
			}
		}()
	}
	wg.Wait()
}

func TestCorrelateUsesPoolConsistently(t *testing.T) {
	// A session scanning on pooled scratch must match the direct path.
	x := make([]float64, 700)
	h := make([]float64, 100)
	for i := range x {
		x[i] = float64(i%13) - 6
	}
	for i := range h {
		h[i] = float64(i%7) - 3
	}
	got := scanParts(NewMatcherBank(NewMatcher(h)), x, nil)[0]
	want := refNormalized(x, h)
	for i := range want {
		if d := got[i] - want[i]; d > 1e-6 || d < -1e-6 {
			t.Fatalf("lag %d: fft %v direct %v", i, got[i], want[i])
		}
	}
}
