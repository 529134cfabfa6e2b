package dsp

import (
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// TestDetectAVX2MatchesCPUInfo: on linux the CPUID/XGETBV check agrees
// with the avx2 flag the kernel reports, which it clears when the OS does
// not save YMM state.
func TestDetectAVX2MatchesCPUInfo(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("checked on linux only")
	}
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("no /proc/cpuinfo: %v", err)
	}
	for _, line := range strings.Split(string(info), "\n") {
		name, flags, ok := strings.Cut(line, ":")
		if !ok || strings.TrimSpace(name) != "flags" {
			continue
		}
		if want := slices.Contains(strings.Fields(flags), "avx2"); detectAVX2() != want {
			t.Fatalf("detectAVX2() = %v, /proc/cpuinfo avx2 flag = %v", detectAVX2(), want)
		}
		return
	}
	t.Skip("no flags line in /proc/cpuinfo")
}
