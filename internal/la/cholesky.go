// Numerical kernel file: the exact zero comparisons below skip products
// with a factor that is zero by assignment — exactness is the point.
//pdevet:allow floateq structural zero skips are exact by construction

package la

import (
	"fmt"
	"math"
)

// BandCholesky factors the regularised normal equations AᵀA + εI of a
// banded matrix A as UᵀU, the analog quotient loop's system. The matrix is
// symmetric positive definite for any ε > 0, so the factor needs no
// pivoting and only the upper half of the band is stored and eliminated:
// each pivot step touches b(b+1)/2 entries where a general band LU of the
// same matrix touches b(b+1).
//
// This is the smooth (Levenberg–Marquardt-like) form of the quotient loop:
// unlike a shifted direct solve, (AᵀA+εI)⁻¹Aᵀg stays bounded and
// continuous as singular values of A cross zero, exactly like the physical
// finite-gain gradient-descent circuit it models.
//
// Storage is upper band, row-contiguous: row i holds U's columns i…i+b at
// data[i*w : (i+1)*w], w = b+1, entry (i, j) at offset j−i. If A has
// bandwidths (klA, kuA), AᵀA has bandwidth b = klA+kuA.
type BandCholesky struct {
	n, b, w int
	data    []float64
}

// NewBandCholesky preallocates a workspace for n×n normal equations of
// half-bandwidth b, reused across factorizations of same-shaped matrices
// (the analog circuit simulation holds one across many evaluations).
func NewBandCholesky(n, b int) *BandCholesky {
	return &BandCholesky{n: n, b: b, w: b + 1, data: make([]float64, n*(b+1))}
}

// FactorNormalFrom loads AᵀA + εI into the workspace and factors it. A
// non-positive or NaN pivot, which rounding can produce only when ε is tiny
// against ‖A‖², returns ErrSingular.
func (f *BandCholesky) FactorNormalFrom(a *CSR, eps float64) error {
	if err := f.loadNormal(a, eps); err != nil {
		return err
	}
	return f.factor()
}

// loadNormal accumulates the upper band of AᵀA + εI into the cleared
// workspace: (AᵀA)ij = Σ_k A[k][i]·A[k][j] over the non-zero pairs of each
// row k of A, in increasing k. Columns increase within a CSR row, so every
// pair row k adds lies in the band when the pair of its first non-zero
// column and its last column does: one check per row.
func (f *BandCholesky) loadNormal(a *CSR, eps float64) error {
	if a.Rows() != f.n || a.Cols() != f.n {
		return fmt.Errorf("la: band Cholesky workspace is %d×%d, matrix is %d×%d", f.n, f.n, a.Rows(), a.Cols())
	}
	clear(f.data)
	w := f.w
	for k := 0; k < f.n; k++ {
		cols, vals := a.RowNNZ(k)
		p0 := 0
		for p0 < len(cols) && vals[p0] == 0 {
			p0++
		}
		if p0 == len(cols) {
			continue
		}
		if i := cols[p0]; cols[len(cols)-1]-i > f.b {
			q := p0
			for cols[q]-i <= f.b {
				q++
			}
			return fmt.Errorf("la: normal-equation entry (%d,%d) outside band b=%d", i, cols[q], f.b)
		}
		for p := p0; p < len(cols); p++ {
			vi := vals[p]
			if vi == 0 {
				continue
			}
			// Entry (i, j) of row i sits at data[i·w+j−i] = data[i·(w−1)+j].
			i := cols[p]
			row := f.data[i*(w-1):]
			vq := vals[p:len(cols)]
			for q, j := range cols[p:] {
				row[j] += float64(vi * vq[q])
			}
		}
	}
	for i := 0; i < f.n; i++ {
		f.data[i*w] += eps
	}
	return nil
}

// factor overwrites the loaded upper band with U, right-looking: pivot step
// k scales row k by 1/√d and subtracts U[k][i]·(row k) from each row i it
// reaches, all in one subScaledRows call. Row k+1+r, stride w after row
// k+r, takes columns k+1+r… of row k, one fewer than the row before.
func (f *BandCholesky) factor() error {
	n, w := f.n, f.w
	data := f.data
	for k := 0; k < n; k++ {
		rowK := data[k*w : k*w+min(f.b, n-1-k)+1] // columns k…min(k+b, n−1)
		d := rowK[0]
		if !(d > 0) {
			return ErrSingular
		}
		r := math.Sqrt(d)
		rowK[0] = r
		c := len(rowK) - 1
		subScaledRows(data[(k+1)*w:], rowK[1:], rowK[1:], w, 1, 1, c, 1, c, r, c)
	}
	return nil
}

// SolveInto solves (AᵀA + εI)·x = b in place after a successful
// FactorNormalFrom: x holds b on entry and the solution on return.
func (f *BandCholesky) SolveInto(x []float64) error {
	if len(x) != f.n {
		return fmt.Errorf("la: band Cholesky SolveInto length mismatch: n=%d len(x)=%d", f.n, len(x))
	}
	n, w := f.n, f.w
	data := f.data
	// Uᵀ·z = b: column k of Uᵀ is row k of U.
	for k := 0; k < n; k++ {
		row := data[k*w : k*w+min(f.b, n-1-k)+1]
		xk := x[k] / row[0]
		x[k] = xk
		if xk == 0 {
			continue
		}
		subScaled(x[k+1:k+len(row)], row[1:], xk)
	}
	// U·x = z.
	for i := n - 1; i >= 0; i-- {
		row := data[i*w : i*w+min(f.b, n-1-i)+1]
		// The dot product runs in four interleaved partial sums (term j
		// into sum j mod 4, a tail of fewer than four into the first),
		// added as (s0+s1)+(s2+s3): four short chains of dependent adds
		// instead of one long one.
		u, xs := row[1:], x[i+1:i+len(row)]
		xs = xs[:len(u)]
		var s0, s1, s2, s3 float64
		j := 0
		for ; j+4 <= len(u); j += 4 {
			s0 += float64(u[j] * xs[j])
			s1 += float64(u[j+1] * xs[j+1])
			s2 += float64(u[j+2] * xs[j+2])
			s3 += float64(u[j+3] * xs[j+3])
		}
		for ; j < len(u); j++ {
			s0 += float64(u[j] * xs[j])
		}
		x[i] = (x[i] - ((s0 + s1) + (s2 + s3))) / row[0]
	}
	return nil
}
