// Package stats provides the summary statistics and CDF machinery the
// benchmark harness uses to report each figure.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Median returns the middle value (mean of middles for even n).
// NaN for empty input.
func Median(xs []float64) float64 { return Percentile(xs, 50) }

// Percentile returns the p-th percentile (0–100) using linear
// interpolation between order statistics. NaN for empty input.
//
// Each call copies and sorts xs; when several percentiles of the same
// sample are needed, Summaries sorts once.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentileSorted(s, p)
}

// percentileSorted interpolates the p-th percentile over already-sorted,
// non-empty s. All percentile paths (Percentile, Summaries, Sketch) share
// this so their answers agree bit for bit.
func percentileSorted(s []float64, p float64) float64 {
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	rank := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s[lo]
	}
	frac := rank - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// Summaries returns the requested percentiles (0–100) of xs with a single
// copy-and-sort, hoisting the per-call sort out of the repeated-percentile
// pattern ("median and 95th of the same series") that dominates experiment
// table assembly. Results match Percentile bit for bit. Empty input yields
// all-NaN.
func Summaries(xs []float64, ps ...float64) []float64 {
	out := make([]float64, len(ps))
	if len(xs) == 0 {
		for i := range out {
			out[i] = math.NaN()
		}
		return out
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	for i, p := range ps {
		out[i] = percentileSorted(s, p)
	}
	return out
}

// Mean returns the arithmetic mean (NaN for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, v := range xs {
		s += v
	}
	return s / float64(len(xs))
}

// Std returns the sample standard deviation (NaN for n < 2).
func Std(xs []float64) float64 {
	if len(xs) < 2 {
		return math.NaN()
	}
	m := Mean(xs)
	var s float64
	for _, v := range xs {
		d := v - m
		s += d * d
	}
	return math.Sqrt(s / float64(len(xs)-1))
}

// CDFAt returns the fraction of xs ≤ v.
func CDFAt(xs []float64, v float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	n := 0
	for _, x := range xs {
		if x <= v {
			n++
		}
	}
	return float64(n) / float64(len(xs))
}

// Table is a printable experiment result.
type Table struct {
	ID     string // e.g. "fig11a"
	Title  string
	Paper  string // what the paper reports (shape to compare against)
	Header []string
	Rows   [][]string
	Notes  string
}

// Format renders the table as aligned text.
func (t *Table) Format() string {
	cols := len(t.Header)
	width := make([]int, cols)
	for c, h := range t.Header {
		width[c] = len(h)
	}
	for _, row := range t.Rows {
		for c := 0; c < cols && c < len(row); c++ {
			if len(row[c]) > width[c] {
				width[c] = len(row[c])
			}
		}
	}
	line := func(cells []string) string {
		s := ""
		for c := 0; c < cols; c++ {
			cell := ""
			if c < len(cells) {
				cell = cells[c]
			}
			s += fmt.Sprintf("%-*s  ", width[c], cell)
		}
		return s + "\n"
	}
	out := fmt.Sprintf("== %s — %s ==\n", t.ID, t.Title)
	if t.Paper != "" {
		out += "paper: " + t.Paper + "\n"
	}
	out += line(t.Header)
	for _, row := range t.Rows {
		out += line(row)
	}
	if t.Notes != "" {
		out += "note: " + t.Notes + "\n"
	}
	return out
}

// F formats a float at 2 decimals (the table cell helper).
func F(v float64) string {
	if math.IsNaN(v) {
		return "n/a"
	}
	return fmt.Sprintf("%.2f", v)
}

// F3 formats a float at 3 decimals.
func F3(v float64) string {
	if math.IsNaN(v) {
		return "n/a"
	}
	return fmt.Sprintf("%.3f", v)
}
