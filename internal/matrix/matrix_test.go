package matrix

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// The dense helpers below are the reference arithmetic the kernels are
// checked against: MulInto against Mul, PseudoInverse and EigSym through
// products and transposes.

// FromRows builds a matrix from row slices. All rows must be equal length.
func FromRows(rows [][]float64) *Mat {
	if len(rows) == 0 {
		return New(0, 0)
	}
	c := len(rows[0])
	m := New(len(rows), c)
	for i, r := range rows {
		if len(r) != c {
			panic("matrix: ragged rows")
		}
		copy(m.Data[i*c:(i+1)*c], r)
	}
	return m
}

// Mul returns a×b. Panics on shape mismatch.
func Mul(a, b *Mat) *Mat {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("matrix: Mul shape mismatch %dx%d · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := New(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for k := 0; k < a.Cols; k++ {
			av := a.At(i, k)
			if av == 0 {
				continue
			}
			rowB := b.Data[k*b.Cols : (k+1)*b.Cols]
			rowO := out.Data[i*out.Cols : (i+1)*out.Cols]
			for j, bv := range rowB {
				rowO[j] += av * bv
			}
		}
	}
	return out
}

// Transpose returns the transpose of m.
func Transpose(m *Mat) *Mat {
	out := New(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			out.Set(j, i, m.At(i, j))
		}
	}
	return out
}

// Scale returns s·m as a new matrix.
func Scale(m *Mat, s float64) *Mat {
	out := m.Clone()
	for i := range out.Data {
		out.Data[i] *= s
	}
	return out
}

// Sub returns a−b.
func Sub(a, b *Mat) *Mat {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic("matrix: Sub shape mismatch")
	}
	out := New(a.Rows, a.Cols)
	for i := range out.Data {
		out.Data[i] = a.Data[i] - b.Data[i]
	}
	return out
}

// MaxAbsDiff returns max |a_ij − b_ij|, a convergence metric.
func MaxAbsDiff(a, b *Mat) float64 {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic("matrix: MaxAbsDiff shape mismatch")
	}
	var m float64
	for i := range a.Data {
		if d := math.Abs(a.Data[i] - b.Data[i]); d > m {
			m = d
		}
	}
	return m
}

// IsSymmetric reports whether m is square and symmetric within tol.
func IsSymmetric(m *Mat, tol float64) bool {
	if m.Rows != m.Cols {
		return false
	}
	for i := 0; i < m.Rows; i++ {
		for j := i + 1; j < m.Cols; j++ {
			if math.Abs(m.At(i, j)-m.At(j, i)) > tol {
				return false
			}
		}
	}
	return true
}

func randSym(r *rand.Rand, n int) *Mat {
	m := New(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := r.NormFloat64()
			m.Set(i, j, v)
			m.Set(j, i, v)
		}
	}
	return m
}

func TestMulIdentity(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	a := randSym(r, 5)
	got := Mul(a, Identity(5))
	if MaxAbsDiff(got, a) > 1e-14 {
		t.Error("A·I != A")
	}
	got = Mul(Identity(5), a)
	if MaxAbsDiff(got, a) > 1e-14 {
		t.Error("I·A != A")
	}
}

func TestMulKnown(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{5, 6}, {7, 8}})
	got := Mul(a, b)
	want := FromRows([][]float64{{19, 22}, {43, 50}})
	if MaxAbsDiff(got, want) > 1e-14 {
		t.Errorf("Mul result:\n%v", got)
	}
}

func TestMulShapePanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected shape panic")
		}
	}()
	Mul(New(2, 3), New(2, 3))
}

func TestTranspose(t *testing.T) {
	a := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	at := Transpose(a)
	if at.Rows != 3 || at.Cols != 2 {
		t.Fatalf("shape %dx%d", at.Rows, at.Cols)
	}
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < a.Cols; j++ {
			if a.At(i, j) != at.At(j, i) {
				t.Fatal("transpose mismatch")
			}
		}
	}
}

func TestEigSymDiagonal(t *testing.T) {
	a := FromRows([][]float64{{3, 0, 0}, {0, -1, 0}, {0, 0, 2}})
	vals, vecs := EigSym(a)
	want := []float64{3, 2, -1}
	for i := range want {
		if math.Abs(vals[i]-want[i]) > 1e-12 {
			t.Errorf("eigenvalue %d = %g, want %g", i, vals[i], want[i])
		}
	}
	// Eigenvectors must be orthonormal.
	vtv := Mul(Transpose(vecs), vecs)
	if MaxAbsDiff(vtv, Identity(3)) > 1e-10 {
		t.Error("eigenvectors not orthonormal")
	}
}

func TestEigSymKnown2x2(t *testing.T) {
	a := FromRows([][]float64{{2, 1}, {1, 2}})
	vals, _ := EigSym(a)
	if math.Abs(vals[0]-3) > 1e-12 || math.Abs(vals[1]-1) > 1e-12 {
		t.Errorf("eigenvalues = %v, want [3 1]", vals)
	}
}

func TestEigSymReconstruction(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + int(uint(seed)%7)
		a := randSym(r, n)
		vals, vecs := EigSym(a)
		// Reconstruct V Λ Vᵀ.
		lam := New(n, n)
		for i, v := range vals {
			lam.Set(i, i, v)
		}
		rec := Mul(Mul(vecs, lam), Transpose(vecs))
		return MaxAbsDiff(rec, a) < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestEigSymDescendingOrder(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	vals, _ := EigSym(randSym(r, 8))
	for i := 1; i < len(vals); i++ {
		if vals[i] > vals[i-1]+1e-12 {
			t.Fatalf("eigenvalues not descending: %v", vals)
		}
	}
}

func TestPseudoInverseFullRank(t *testing.T) {
	// For an invertible symmetric matrix, pinv == inverse.
	a := FromRows([][]float64{{4, 1}, {1, 3}})
	pinv := PseudoInverse(a, 1e-12)
	prod := Mul(a, pinv)
	if MaxAbsDiff(prod, Identity(2)) > 1e-10 {
		t.Errorf("A·A+ != I:\n%v", prod)
	}
}

func TestPseudoInverseSingular(t *testing.T) {
	// Graph Laplacian of a path 0-1-2: singular with null space = ones.
	l := FromRows([][]float64{
		{1, -1, 0},
		{-1, 2, -1},
		{0, -1, 1},
	})
	p := PseudoInverse(l, 1e-10)
	// Moore–Penrose conditions: L P L == L and P L P == P.
	lpl := Mul(Mul(l, p), l)
	if MaxAbsDiff(lpl, l) > 1e-9 {
		t.Error("L P L != L")
	}
	plp := Mul(Mul(p, l), p)
	if MaxAbsDiff(plp, p) > 1e-9 {
		t.Error("P L P != P")
	}
	// Symmetry of products.
	lp := Mul(l, p)
	if !IsSymmetric(lp, 1e-9) {
		t.Error("L·P not symmetric")
	}
}

func TestPseudoInversePropertyRandomLaplacian(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 4 + int(uint(seed)%5)
		// Random weighted Laplacian (always PSD, singular).
		l := New(n, n)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if r.Float64() < 0.7 {
					w := r.Float64() + 0.1
					l.Add(i, j, -w)
					l.Add(j, i, -w)
					l.Add(i, i, w)
					l.Add(j, j, w)
				}
			}
		}
		p := PseudoInverse(l, 1e-10)
		return MaxAbsDiff(Mul(Mul(l, p), l), l) < 1e-7
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestDoubleCenterRecoversGeometry(t *testing.T) {
	// Points on a line: 0, 3, 7. Classical MDS via double centering should
	// produce a Gram matrix whose top eigenvalue reconstructs the spread.
	pts := []float64{0, 3, 7}
	n := len(pts)
	d := New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			d.Set(i, j, math.Abs(pts[i]-pts[j]))
		}
	}
	b := DoubleCenter(d)
	if !IsSymmetric(b, 1e-12) {
		t.Fatal("centered matrix not symmetric")
	}
	vals, vecs := EigSym(b)
	// Rank must be 1 for collinear points.
	if vals[0] < 1e-9 {
		t.Fatal("top eigenvalue vanished")
	}
	for _, v := range vals[1:] {
		if math.Abs(v) > 1e-9 {
			t.Errorf("spurious eigenvalue %g", v)
		}
	}
	// Reconstructed coordinates must reproduce distances.
	coord := make([]float64, n)
	s := math.Sqrt(vals[0])
	for i := 0; i < n; i++ {
		coord[i] = s * vecs.At(i, 0)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if math.Abs(math.Abs(coord[i]-coord[j])-d.At(i, j)) > 1e-9 {
				t.Fatalf("distance mismatch (%d,%d)", i, j)
			}
		}
	}
}

func TestFromRowsRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected ragged panic")
		}
	}()
	FromRows([][]float64{{1, 2}, {3}})
}

func TestScaleSub(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	s := Scale(a, 2)
	if s.At(1, 1) != 8 {
		t.Errorf("Scale = %v", s)
	}
	d := Sub(s, a)
	if MaxAbsDiff(d, a) > 1e-14 {
		t.Error("2A - A != A")
	}
}

func TestIsSymmetric(t *testing.T) {
	if IsSymmetric(New(2, 3), 0) {
		t.Error("non-square cannot be symmetric")
	}
	a := FromRows([][]float64{{1, 2}, {2.0001, 1}})
	if IsSymmetric(a, 1e-6) {
		t.Error("asymmetric within tolerance")
	}
	if !IsSymmetric(a, 1e-3) {
		t.Error("should pass with loose tolerance")
	}
}

func TestMulIntoMatchesMul(t *testing.T) {
	a := FromRows([][]float64{{1, 2, 0}, {-3, 0.5, 4}})
	b := FromRows([][]float64{{2, 0}, {1, -1}, {0.25, 8}})
	want := Mul(a, b)
	var dst Mat
	got := MulInto(&dst, a, b)
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("shape %dx%d, want %dx%d", got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("element %d: %v != %v", i, got.Data[i], want.Data[i])
		}
	}
	// Reuse with stale contents and a different shape must still match.
	MulInto(&dst, b, a)
	want2 := Mul(b, a)
	for i := range want2.Data {
		if dst.Data[i] != want2.Data[i] {
			t.Fatalf("reused dst element %d: %v != %v", i, dst.Data[i], want2.Data[i])
		}
	}
}

func TestReset(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	m.Reset(1, 3)
	if m.Rows != 1 || m.Cols != 3 {
		t.Fatalf("shape %dx%d", m.Rows, m.Cols)
	}
	for i, v := range m.Data {
		if v != 0 {
			t.Fatalf("Reset left residue at %d: %v", i, v)
		}
	}
}
