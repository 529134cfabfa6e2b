//go:build race

package dsp

// raceEnabled keeps race builds on the Go block loops: the race detector
// does not see the loads and stores that assembly makes.
const raceEnabled = true
