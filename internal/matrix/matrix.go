// Package matrix provides the small dense linear-algebra kernel used by the
// multidimensional-scaling solver: matrix arithmetic, a cyclic Jacobi
// symmetric eigendecomposition and the Moore–Penrose pseudo-inverse.
//
// The positioning problem works with matrices of size N×N where N is the
// number of divers (≤ ~10), so clarity wins over blocking/SIMD tricks.
package matrix

import (
	"fmt"
	"math"
)

// Mat is a dense row-major matrix of float64.
type Mat struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols
}

// New returns a zero matrix of the given shape.
func New(rows, cols int) *Mat {
	if rows < 0 || cols < 0 {
		panic("matrix: negative dimension")
	}
	return &Mat{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Mat {
	m := New(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// At returns element (i, j).
func (m *Mat) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Mat) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Add increments element (i, j) by v.
func (m *Mat) Add(i, j int, v float64) { m.Data[i*m.Cols+j] += v }

// Clone returns a deep copy.
func (m *Mat) Clone() *Mat {
	out := New(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// Reset reshapes m to rows×cols and zeroes its contents, reusing the
// backing slice when it is large enough — the scratch-reuse primitive for
// iterative algorithms that would otherwise allocate per iteration.
func (m *Mat) Reset(rows, cols int) {
	if rows < 0 || cols < 0 {
		panic("matrix: negative dimension")
	}
	n := rows * cols
	if cap(m.Data) < n {
		m.Data = make([]float64, n)
	} else {
		m.Data = m.Data[:n]
		for i := range m.Data {
			m.Data[i] = 0
		}
	}
	m.Rows, m.Cols = rows, cols
}

// MulInto computes a·b into dst (reshaped to fit), reusing dst's backing
// storage. The accumulation order matches Mul exactly, so results are bit
// for bit identical. dst must not alias a or b.
func MulInto(dst, a, b *Mat) *Mat {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("matrix: MulInto shape mismatch %dx%d · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	dst.Reset(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for k := 0; k < a.Cols; k++ {
			av := a.At(i, k)
			if av == 0 {
				continue
			}
			rowB := b.Data[k*b.Cols : (k+1)*b.Cols]
			rowO := dst.Data[i*dst.Cols : (i+1)*dst.Cols]
			for j, bv := range rowB {
				rowO[j] += av * bv
			}
		}
	}
	return dst
}

// EigSym computes the eigendecomposition of a symmetric matrix using the
// cyclic Jacobi method. It returns the eigenvalues in descending order and
// the matrix of corresponding eigenvectors in columns (A = V Λ Vᵀ).
// Panics if a is not square; symmetry is assumed (the upper triangle wins).
func EigSym(a *Mat) (vals []float64, vecs *Mat) {
	if a.Rows != a.Cols {
		panic("matrix: EigSym needs a square matrix")
	}
	n := a.Rows
	w := a.Clone()
	// Force symmetry from the upper triangle to guard against drift.
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v := w.At(i, j)
			w.Set(j, i, v)
		}
	}
	v := Identity(n)
	const maxSweeps = 100
	for sweep := 0; sweep < maxSweeps; sweep++ {
		var off float64
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				off += w.At(i, j) * w.At(i, j)
			}
		}
		if off < 1e-22*float64(n*n) {
			break
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := w.At(p, q)
				if math.Abs(apq) < 1e-300 {
					continue
				}
				app := w.At(p, p)
				aqq := w.At(q, q)
				theta := (aqq - app) / (2 * apq)
				var t float64
				if theta >= 0 {
					t = 1 / (theta + math.Sqrt(1+theta*theta))
				} else {
					t = -1 / (-theta + math.Sqrt(1+theta*theta))
				}
				c := 1 / math.Sqrt(1+t*t)
				s := t * c
				// Apply rotation J(p,q,θ)ᵀ W J(p,q,θ).
				for k := 0; k < n; k++ {
					wkp := w.At(k, p)
					wkq := w.At(k, q)
					w.Set(k, p, c*wkp-s*wkq)
					w.Set(k, q, s*wkp+c*wkq)
				}
				for k := 0; k < n; k++ {
					wpk := w.At(p, k)
					wqk := w.At(q, k)
					w.Set(p, k, c*wpk-s*wqk)
					w.Set(q, k, s*wpk+c*wqk)
				}
				for k := 0; k < n; k++ {
					vkp := v.At(k, p)
					vkq := v.At(k, q)
					v.Set(k, p, c*vkp-s*vkq)
					v.Set(k, q, s*vkp+c*vkq)
				}
			}
		}
	}
	vals = make([]float64, n)
	for i := 0; i < n; i++ {
		vals[i] = w.At(i, i)
	}
	// Sort eigenvalues (and columns of v) in descending order.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	for i := 0; i < n; i++ {
		best := i
		for j := i + 1; j < n; j++ {
			if vals[order[j]] > vals[order[best]] {
				best = j
			}
		}
		order[i], order[best] = order[best], order[i]
	}
	sorted := make([]float64, n)
	vecs = New(n, n)
	for c2, idx := range order {
		sorted[c2] = vals[idx]
		for r := 0; r < n; r++ {
			vecs.Set(r, c2, v.At(r, idx))
		}
	}
	return sorted, vecs
}

// PseudoInverse computes the Moore–Penrose pseudo-inverse of a symmetric
// matrix via its eigendecomposition, dropping eigenvalues with
// |λ| <= tol·max|λ|. This is exactly what weighted SMACOF needs for V⁺,
// whose null space is the all-ones translation direction.
func PseudoInverse(a *Mat, tol float64) *Mat {
	vals, vecs := EigSym(a)
	n := len(vals)
	var maxAbs float64
	for _, v := range vals {
		if av := math.Abs(v); av > maxAbs {
			maxAbs = av
		}
	}
	cut := tol * maxAbs
	out := New(n, n)
	for k := 0; k < n; k++ {
		if math.Abs(vals[k]) <= cut || vals[k] == 0 {
			continue
		}
		inv := 1 / vals[k]
		for i := 0; i < n; i++ {
			vik := vecs.At(i, k)
			if vik == 0 {
				continue
			}
			for j := 0; j < n; j++ {
				out.Add(i, j, inv*vik*vecs.At(j, k))
			}
		}
	}
	return out
}

// DoubleCenter applies the classical-MDS double-centering transform
// B = −½ J D² J with J = I − 11ᵀ/n, taking a matrix of *distances* and
// returning the centered inner-product (Gram) matrix.
func DoubleCenter(dist *Mat) *Mat {
	n := dist.Rows
	if dist.Cols != n {
		panic("matrix: DoubleCenter needs a square distance matrix")
	}
	sq := New(n, n)
	for i := range sq.Data {
		sq.Data[i] = dist.Data[i] * dist.Data[i]
	}
	rowMean := make([]float64, n)
	colMean := make([]float64, n)
	var total float64
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			v := sq.At(i, j)
			rowMean[i] += v
			colMean[j] += v
			total += v
		}
	}
	fn := float64(n)
	for i := range rowMean {
		rowMean[i] /= fn
	}
	for j := range colMean {
		colMean[j] /= fn
	}
	total /= fn * fn
	out := New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			out.Set(i, j, -0.5*(sq.At(i, j)-rowMean[i]-colMean[j]+total))
		}
	}
	return out
}
