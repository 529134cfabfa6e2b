package main

import (
	"bytes"
	"flag"
	"fmt"
	"go/format"
	"os"
	"testing"

	"uwpos/internal/core"
	"uwpos/internal/mds"
)

var writeLocPool = flag.Bool("write-locpool", false, "regenerate locpool.go with the current solver")

// locPoolSize is how many draws each shape's pool holds.
const locPoolSize = 50

// TestWriteLocPool regenerates locpool.go: for each shape, the first
// locPoolSize draws on which the current solver takes the shape's
// intended path. It runs only when asked to:
//
//	go test -run TestWriteLocPool -write-locpool
//
// Regenerating changes localize-mix's inputs, so a run before and a run
// after no longer time the same ops; pin the new digest in
// TestSameSeedSameInputs.
func TestWriteLocPool(t *testing.T) {
	if !*writeLocPool {
		t.Skip("regenerates locpool.go; run with -write-locpool")
	}
	var b bytes.Buffer
	b.WriteString("// Code generated by go test -run TestWriteLocPool -write-locpool; DO NOT EDIT.\n\n")
	b.WriteString("package main\n\n")
	b.WriteString("// locPool holds, for each shape of locShapes, the draws j of poolDraw on\n")
	b.WriteString("// which core.Localize's Algorithm 1 took the shape's intended path when\n")
	b.WriteString("// the pool was made.\n")
	b.WriteString("var locPool = [][]int{\n")
	for s, sh := range locShapes {
		fmt.Fprintf(&b, "\t// N = %d, %d drops, %d outliers\n\t{", sh.n, sh.drops, sh.outliers)
		for j, n := 0, 0; n < locPoolSize; j++ {
			if takesIntendedPath(poolDraw(s, j)) {
				fmt.Fprintf(&b, "%d, ", j)
				n++
			}
		}
		b.WriteString("},\n")
	}
	b.WriteString("}\n")
	src, err := format.Source(b.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("locpool.go", src, 0o644); err != nil {
		t.Fatal(err)
	}
}

// takesIntendedPath reports whether core.Localize's Algorithm 1 takes the
// op's intended path: with no outliers, the first SMACOF solve is
// accepted (normalized stress below 1.5 m); with k outliers, that solve
// is rejected, and dropping the k outlier links both cuts the stress by
// the required 90% and brings it below 1.5 m, so the search stops after
// level k.
func takesIntendedPath(op locOp) bool {
	cfg := core.DefaultConfig()
	d2d, err := core.ProjectTo2D(op.in.D, op.in.W, op.in.Depths)
	if err != nil {
		return false
	}
	base, err := mds.Solve(d2d, op.in.W, cfg.MDS)
	if err != nil {
		return false
	}
	if len(op.outliers) == 0 || base.NormStress < cfg.StressAccept {
		return len(op.outliers) == 0 && base.NormStress < cfg.StressAccept
	}
	w := make([][]float64, len(op.in.W))
	for i := range w {
		w[i] = append([]float64(nil), op.in.W[i]...)
	}
	for _, e := range op.outliers {
		w[e.Low][e.High], w[e.High][e.Low] = 0, 0
	}
	trial, err := mds.Solve(d2d, w, cfg.MDS)
	return err == nil && trial.NormStress < cfg.StressAccept &&
		base.NormStress-trial.NormStress > cfg.DropFraction*base.NormStress
}
