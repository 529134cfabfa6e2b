//go:build !race

package dsp

const raceEnabled = false
