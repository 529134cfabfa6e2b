package main

import (
	"math"
	"runtime"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The host's speed drifts by tens of percent within minutes (see
// README.md), so a run measures it while it times: a calibrator times a
// fixed reference kernel on every CPU throughout the set-ups and the
// timed phase, and the gated times are scaled to the speed at which the
// kernel takes calNominal. The kernel calls no code of the program, so a
// change to the program moves the scaled figures as it moves raw ones.

// calibrator runs one goroutine per CPU, each locked to an OS thread
// pinned to its CPU, timing the kernel every calEvery in thread CPU time:
// the samples see every CPU the ops may run on, throughout long ops too,
// and do not count time a thread waited for its CPU.
type calibrator struct {
	stop chan struct{}
	wg   sync.WaitGroup
	mu   sync.Mutex
	cpus []int
	by   map[int][]float64 // kernel seconds per CPU
	sink float64           // the kernels' results, kept so they are computed
}

const (
	calEvery   = 250 * time.Millisecond
	calNominal = 0.005 // s: the kernel time the gated figures are scaled to
)

var (
	calSignal = func() []float64 {
		x := make([]float64, 8192)
		for i := range x {
			x[i] = math.Sin(0.01 * float64(i))
		}
		return x
	}()
	calTaps = calSignal[:128]
)

// calKernel is an FIR-like loop over cache-resident data, the shape of the
// program's hot loops (channel rendering, the ingest prefilter, SMACOF's
// matrix products); it takes ~5 ms.
func calKernel() float64 {
	var sum float64
	for rep := 0; rep < 4; rep++ {
		for i := 0; i+len(calTaps) <= len(calSignal); i++ {
			var acc float64
			for k, h := range calTaps {
				acc += calSignal[i+k] * h
			}
			sum += acc
		}
	}
	return sum
}

func startCalibrator() *calibrator {
	cpus := allowedCPUs()
	c := &calibrator{stop: make(chan struct{}), cpus: cpus, by: map[int][]float64{}}
	for i, cpu := range cpus {
		c.wg.Add(1)
		go c.sample(cpu, time.Duration(i)*calEvery/time.Duration(len(cpus)))
	}
	return c
}

// sample times the kernel on one CPU until stop, starting after offset so
// that the CPUs take turns.
func (c *calibrator) sample(cpu int, offset time.Duration) {
	defer c.wg.Done()
	runtime.LockOSThread() // never unlocked: the pinned thread exits with the goroutine
	if pinThread(cpu) != nil {
		return
	}
	select {
	case <-c.stop:
		return
	case <-time.After(offset):
	}
	tick := time.NewTicker(calEvery)
	defer tick.Stop()
	for {
		start := threadCPUTime()
		x := calKernel()
		d := (threadCPUTime() - start).Seconds()
		c.mu.Lock()
		c.by[cpu] = append(c.by[cpu], d)
		c.sink += x
		c.mu.Unlock()
		select {
		case <-c.stop:
			return
		case <-tick.C:
		}
	}
}

// finish stops the sampling and returns the host's slowdown against the
// reference: the mean kernel time over calNominal, on the given CPU or on
// every CPU when cpu < 0 (1 when no sample was taken), and the number of
// samples behind it.
func (c *calibrator) finish(cpu int) (slowdown float64, samples int) {
	close(c.stop)
	c.wg.Wait()
	var xs []float64
	for _, k := range c.cpus {
		if cpu < 0 || k == cpu {
			xs = append(xs, c.by[k]...)
		}
	}
	if len(xs) == 0 {
		return 1, 0
	}
	return sum(xs) / float64(len(xs)) / calNominal, len(xs)
}

// onPinnedThread runs fn on a goroutine locked to an OS thread pinned to
// cpu and returns its result, and whether the pinning took; fn runs
// unpinned when it did not. The thread exits with the goroutine.
func onPinnedThread(cpu int, fn func() *recorder) (*recorder, bool) {
	type result struct {
		rec    *recorder
		pinned bool
	}
	out := make(chan result, 1)
	go func() {
		runtime.LockOSThread()
		pinned := pinThread(cpu) == nil
		out <- result{fn(), pinned}
	}()
	r := <-out
	return r.rec, r.pinned
}

// allowedCPUs lists the CPUs the process may run on.
func allowedCPUs() []int {
	var mask [16]uint64
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask)))
	if errno != 0 {
		return []int{0}
	}
	var cpus []int
	for i := 0; i < len(mask)*64; i++ {
		if mask[i/64]&(1<<(i%64)) != 0 {
			cpus = append(cpus, i)
		}
	}
	return cpus
}

// pinThread restricts the calling OS thread to one CPU.
func pinThread(cpu int) error {
	var mask [16]uint64
	mask[cpu/64] |= 1 << (cpu % 64)
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask)))
	if errno != 0 {
		return errno
	}
	return nil
}

// threadCPUTime is the CPU time the calling OS thread has used.
func threadCPUTime() time.Duration {
	const clockThreadCPUTime = 3 // CLOCK_THREAD_CPUTIME_ID
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}
