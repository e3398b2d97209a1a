// Numerical kernel file: the exact zero comparisons below are pivot,
// breakdown and structural-sparsity tests against values that are zero by
// assignment or would divide by zero — exactness is the point.
//pdevet:allow floateq pivot/breakdown/structural zero tests are exact by construction

package la

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular is returned when a factorization or solve encounters an exactly
// or numerically singular matrix. The paper's damped-Newton baseline hits
// this at high Reynolds numbers, where the Jacobian diagonal shrinks (§6.1);
// callers are expected to react by damping or re-seeding rather than aborting.
var ErrSingular = errors.New("la: matrix is singular to working precision")

// LU is an LU factorization with partial pivoting: P·A = L·U.
type LU struct {
	n   int
	lu  *Dense // packed L (unit lower, below diagonal) and U (upper)
	piv []int  // row permutation
}

// FactorLU computes the LU factorization of the square matrix a with partial
// pivoting. a is not modified.
func FactorLU(a *Dense) (*LU, error) {
	if a.Rows() != a.Cols() {
		return nil, fmt.Errorf("la: LU of non-square %d×%d matrix", a.Rows(), a.Cols())
	}
	n := a.Rows()
	f := &LU{n: n, lu: a.Clone(), piv: make([]int, n)}
	for i := range f.piv {
		f.piv[i] = i
	}
	lu := f.lu
	for k := 0; k < n; k++ {
		// Find pivot.
		p, max := k, math.Abs(lu.At(k, k))
		for i := k + 1; i < n; i++ {
			if a := math.Abs(lu.At(i, k)); a > max {
				p, max = i, a
			}
		}
		if max == 0 {
			return nil, ErrSingular
		}
		if p != k {
			rk, rp := lu.Row(k), lu.Row(p)
			for j := range rk {
				rk[j], rp[j] = rp[j], rk[j]
			}
			f.piv[k], f.piv[p] = f.piv[p], f.piv[k]
		}
		pivot := lu.At(k, k)
		for i := k + 1; i < n; i++ {
			m := lu.At(i, k) / pivot
			lu.Set(i, k, m)
			if m == 0 {
				continue
			}
			ri, rk := lu.Row(i), lu.Row(k)
			for j := k + 1; j < n; j++ {
				ri[j] -= m * rk[j]
			}
		}
	}
	return f, nil
}

// Solve solves A·x = b, writing the solution into dst. dst and b may alias.
func (f *LU) Solve(dst, b []float64) error {
	if len(b) != f.n || len(dst) != f.n {
		return fmt.Errorf("la: LU solve length mismatch: n=%d, len(b)=%d, len(dst)=%d", f.n, len(b), len(dst))
	}
	// Apply permutation into a scratch copy, then solve in place.
	x := make([]float64, f.n)
	for i, p := range f.piv {
		x[i] = b[p]
	}
	lu := f.lu
	// Forward substitution with unit lower triangle.
	for i := 1; i < f.n; i++ {
		row := lu.Row(i)
		s := x[i]
		for j := 0; j < i; j++ {
			s -= row[j] * x[j]
		}
		x[i] = s
	}
	// Back substitution with upper triangle.
	for i := f.n - 1; i >= 0; i-- {
		row := lu.Row(i)
		s := x[i]
		for j := i + 1; j < f.n; j++ {
			s -= row[j] * x[j]
		}
		d := row[i]
		if d == 0 {
			return ErrSingular
		}
		x[i] = s / d
	}
	copy(dst, x)
	return nil
}

// SolveDense solves A·x = b directly, a convenience for one-shot solves.
func SolveDense(a *Dense, b []float64) ([]float64, error) {
	f, err := FactorLU(a)
	if err != nil {
		return nil, err
	}
	x := make([]float64, len(b))
	if err := f.Solve(x, b); err != nil {
		return nil, err
	}
	return x, nil
}
