// Numerical kernel file: the exact zero comparisons below are pivot,
// breakdown and structural-sparsity tests against values that are zero by
// assignment or would divide by zero — exactness is the point.
//pdevet:allow floateq pivot/breakdown/structural zero tests are exact by construction

// Package la provides the linear-algebra substrate used by every other
// layer of the hybrid solver: COO/CSR storage with the banded direct
// solves of the Newton hot path (BandLU, standing in for the paper's
// cuSolver sparse-QR offload) and of the fabric's quotient loop
// (BandCholesky), and the CG/PCG, BiCGSTAB and SOR kernels of the Table-1
// mini-apps. Dense and its partial-pivoting LU are the reference the band
// and CSR kernels are tested against; no solve path uses them.
//
// All code is self-contained and uses only the standard library.
package la

import (
	"fmt"
	"math"
	"strings"
)

// Dense is a row-major dense matrix.
type Dense struct {
	rows, cols int
	data       []float64
}

// NewDense returns a zeroed rows×cols matrix.
func NewDense(rows, cols int) *Dense {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("la: invalid dense dimensions %d×%d", rows, cols))
	}
	return &Dense{rows: rows, cols: cols, data: make([]float64, rows*cols)}
}

// NewDenseFrom builds a matrix from a slice of rows. Each row must have the
// same length.
func NewDenseFrom(rows [][]float64) *Dense {
	if len(rows) == 0 {
		return NewDense(0, 0)
	}
	m := NewDense(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.cols {
			panic(fmt.Sprintf("la: ragged row %d: len %d, want %d", i, len(r), m.cols))
		}
		copy(m.data[i*m.cols:], r)
	}
	return m
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Dense {
	m := NewDense(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// Rows reports the number of rows.
func (m *Dense) Rows() int { return m.rows }

// Cols reports the number of columns.
func (m *Dense) Cols() int { return m.cols }

// At returns the element at row i, column j.
func (m *Dense) At(i, j int) float64 { return m.data[i*m.cols+j] }

// Set assigns the element at row i, column j.
func (m *Dense) Set(i, j int, v float64) { m.data[i*m.cols+j] = v }

// Add accumulates v into the element at row i, column j.
func (m *Dense) Add(i, j int, v float64) { m.data[i*m.cols+j] += v }

// Row returns a view of row i (shared storage).
func (m *Dense) Row(i int) []float64 { return m.data[i*m.cols : (i+1)*m.cols] }

// Clone returns a deep copy.
func (m *Dense) Clone() *Dense {
	c := NewDense(m.rows, m.cols)
	copy(c.data, m.data)
	return c
}

// MulVec computes dst = M·x. dst must have length Rows and x length Cols;
// dst and x must not alias.
func (m *Dense) MulVec(dst, x []float64) {
	if len(x) != m.cols || len(dst) != m.rows {
		panic(fmt.Sprintf("la: MulVec dimension mismatch: %d×%d by %d into %d", m.rows, m.cols, len(x), len(dst)))
	}
	for i := 0; i < m.rows; i++ {
		row := m.data[i*m.cols : (i+1)*m.cols]
		s := 0.0
		for j, v := range row {
			s += float64(v * x[j])
		}
		dst[i] = s
	}
}

// Mul computes dst = A·B, allocating dst.
func Mul(a, b *Dense) *Dense {
	if a.cols != b.rows {
		panic(fmt.Sprintf("la: Mul dimension mismatch: %d×%d by %d×%d", a.rows, a.cols, b.rows, b.cols))
	}
	c := NewDense(a.rows, b.cols)
	for i := 0; i < a.rows; i++ {
		arow := a.Row(i)
		crow := c.Row(i)
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.Row(k)
			for j, bv := range brow {
				crow[j] += av * bv
			}
		}
	}
	return c
}

// Transpose returns a new matrix that is the transpose of m.
func (m *Dense) Transpose() *Dense {
	t := NewDense(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			t.Set(j, i, m.At(i, j))
		}
	}
	return t
}

// String renders the matrix for debugging.
func (m *Dense) String() string {
	var b strings.Builder
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			fmt.Fprintf(&b, "% .6g ", m.At(i, j))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Vector helpers. These operate on plain []float64 so callers do not need a
// wrapper type for the hot paths.

// Dot returns the inner product of x and y.
func Dot(x, y []float64) float64 {
	if len(x) != len(y) {
		panic(fmt.Sprintf("la: Dot length mismatch %d vs %d", len(x), len(y)))
	}
	s := 0.0
	for i, v := range x {
		s += float64(v * y[i])
	}
	return s
}

// Norm2 returns the Euclidean norm of x. Its final product is rounded, so
// a caller's Norm2(x)+c cannot fuse into one multiply-add once inlined.
func Norm2(x []float64) float64 {
	// Scaled to avoid overflow for large entries.
	scale, ssq := 0.0, 1.0
	for _, v := range x {
		if v == 0 {
			continue
		}
		a := math.Abs(v)
		if scale < a {
			r := scale / a
			ssq = 1 + float64(ssq*r*r)
			scale = a
		} else {
			r := a / scale
			ssq += float64(r * r)
		}
	}
	return float64(scale * math.Sqrt(ssq))
}

// Axpy computes y += a·x in place.
func Axpy(a float64, x, y []float64) {
	if len(x) != len(y) {
		panic(fmt.Sprintf("la: Axpy length mismatch %d vs %d", len(x), len(y)))
	}
	for i, v := range x {
		y[i] += float64(a * v)
	}
}

// Copy duplicates src into a new slice.
func Copy(src []float64) []float64 {
	dst := make([]float64, len(src))
	copy(dst, src)
	return dst
}

// Sub computes dst = x − y element-wise.
func Sub(dst, x, y []float64) {
	if len(x) != len(y) || len(dst) != len(x) {
		panic("la: Sub length mismatch")
	}
	for i := range dst {
		dst[i] = x[i] - y[i]
	}
}

// Fill sets every element of x to v.
func Fill(x []float64, v float64) {
	for i := range x {
		x[i] = v
	}
}
