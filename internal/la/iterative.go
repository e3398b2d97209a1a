// Numerical kernel file: the exact zero comparisons below are pivot,
// breakdown and structural-sparsity tests against values that are zero by
// assignment or would divide by zero — exactness is the point.
//pdevet:allow floateq pivot/breakdown/structural zero tests are exact by construction

package la

import (
	"errors"
	"fmt"
)

// ErrNoConvergence is returned when an iterative solver exhausts its
// iteration budget before reaching the requested tolerance.
var ErrNoConvergence = errors.New("la: iterative solver did not converge")

// ErrBreakdown is returned when an iterative recurrence degenerates (for
// example rho ≈ 0 in BiCGSTAB).
var ErrBreakdown = errors.New("la: iterative solver breakdown")

// IterStats reports what an iterative solve did, so the performance models
// and Table 1 profiles can account for work performed.
type IterStats struct {
	Iterations int     // outer iterations executed
	Residual   float64 // final ‖b − A·x‖₂
	Converged  bool
}

// Preconditioner applies M⁻¹ to a vector: dst = M⁻¹·r.
type Preconditioner interface {
	Apply(dst, r []float64)
}

// IdentityPreconditioner is the no-op preconditioner.
type IdentityPreconditioner struct{}

// Apply copies r into dst.
func (IdentityPreconditioner) Apply(dst, r []float64) { copy(dst, r) }

// JacobiPreconditioner scales by the inverse diagonal of A.
type JacobiPreconditioner struct {
	invDiag []float64
}

// NewJacobi builds a Jacobi preconditioner for a. Zero diagonal entries are
// treated as 1 so the preconditioner stays well-defined.
func NewJacobi(a *CSR) *JacobiPreconditioner {
	d := a.Diagonal()
	inv := make([]float64, len(d))
	for i, v := range d {
		if v == 0 {
			inv[i] = 1
		} else {
			inv[i] = 1 / v
		}
	}
	return &JacobiPreconditioner{invDiag: inv}
}

// Apply computes dst = D⁻¹·r.
func (p *JacobiPreconditioner) Apply(dst, r []float64) {
	for i, v := range r {
		dst[i] = v * p.invDiag[i]
	}
}

// CGOptions configures the conjugate-gradient family of solvers.
type CGOptions struct {
	Tol     float64        // relative residual target; default 1e-10
	MaxIter int            // default 10·n
	M       Preconditioner // default identity
}

func (o *CGOptions) defaults(n int) {
	if o.Tol <= 0 {
		o.Tol = 1e-10
	}
	if o.MaxIter <= 0 {
		o.MaxIter = 10 * n
	}
	if o.M == nil {
		o.M = IdentityPreconditioner{}
	}
}

// CG solves the symmetric positive-definite system A·x = b by (optionally
// preconditioned) conjugate gradients, starting from the contents of x.
// This is the dominant kernel of the OpenFOAM-style workloads in Table 1.
func CG(a *CSR, x, b []float64, opts CGOptions) (IterStats, error) {
	n := len(b)
	if a.Rows() != n || a.Cols() != n || len(x) != n {
		return IterStats{}, fmt.Errorf("la: CG dimension mismatch")
	}
	opts.defaults(n)
	r := make([]float64, n)
	a.Residual(r, b, x)
	z := make([]float64, n)
	opts.M.Apply(z, r)
	p := Copy(z)
	ap := make([]float64, n)
	bnorm := Norm2(b)
	if bnorm == 0 {
		bnorm = 1
	}
	rz := Dot(r, z)
	var st IterStats
	for st.Iterations = 0; st.Iterations < opts.MaxIter; st.Iterations++ {
		res := Norm2(r)
		st.Residual = res
		if res <= opts.Tol*bnorm {
			st.Converged = true
			return st, nil
		}
		a.MulVec(ap, p)
		pap := Dot(p, ap)
		if pap == 0 {
			return st, ErrBreakdown
		}
		alpha := rz / pap
		Axpy(alpha, p, x)
		Axpy(-alpha, ap, r)
		opts.M.Apply(z, r)
		rzNew := Dot(r, z)
		beta := rzNew / rz
		rz = rzNew
		for i := range p {
			p[i] = z[i] + beta*p[i]
		}
	}
	st.Residual = Norm2(r)
	st.Converged = st.Residual <= opts.Tol*bnorm
	if !st.Converged {
		return st, ErrNoConvergence
	}
	return st, nil
}

// BiCGSTAB solves the general (possibly nonsymmetric) system A·x = b by the
// stabilised bi-conjugate gradient method, the dominant kernel of the
// bwaves-style fluid workload in Table 1.
func BiCGSTAB(a *CSR, x, b []float64, opts CGOptions) (IterStats, error) {
	n := len(b)
	if a.Rows() != n || a.Cols() != n || len(x) != n {
		return IterStats{}, fmt.Errorf("la: BiCGSTAB dimension mismatch")
	}
	opts.defaults(n)
	r := make([]float64, n)
	a.Residual(r, b, x)
	rhat := Copy(r)
	v := make([]float64, n)
	p := make([]float64, n)
	phat := make([]float64, n)
	shat := make([]float64, n)
	t := make([]float64, n)
	rho, alpha, omega := 1.0, 1.0, 1.0
	bnorm := Norm2(b)
	if bnorm == 0 {
		bnorm = 1
	}
	var st IterStats
	for st.Iterations = 0; st.Iterations < opts.MaxIter; st.Iterations++ {
		res := Norm2(r)
		st.Residual = res
		if res <= opts.Tol*bnorm {
			st.Converged = true
			return st, nil
		}
		rhoNew := Dot(rhat, r)
		if rhoNew == 0 {
			return st, ErrBreakdown
		}
		if st.Iterations == 0 {
			copy(p, r)
		} else {
			beta := (rhoNew / rho) * (alpha / omega)
			for i := range p {
				p[i] = r[i] + beta*(p[i]-omega*v[i])
			}
		}
		rho = rhoNew
		opts.M.Apply(phat, p)
		a.MulVec(v, phat)
		d := Dot(rhat, v)
		if d == 0 {
			return st, ErrBreakdown
		}
		alpha = rho / d
		s := make([]float64, n)
		for i := range s {
			s[i] = r[i] - alpha*v[i]
		}
		if Norm2(s) <= opts.Tol*bnorm {
			Axpy(alpha, phat, x)
			copy(r, s)
			st.Residual = Norm2(r)
			st.Converged = true
			st.Iterations++
			return st, nil
		}
		opts.M.Apply(shat, s)
		a.MulVec(t, shat)
		tt := Dot(t, t)
		if tt == 0 {
			return st, ErrBreakdown
		}
		omega = Dot(t, s) / tt
		if omega == 0 {
			return st, ErrBreakdown
		}
		for i := range x {
			x[i] += alpha*phat[i] + omega*shat[i]
		}
		for i := range r {
			r[i] = s[i] - omega*t[i]
		}
	}
	st.Residual = Norm2(r)
	st.Converged = st.Residual <= opts.Tol*bnorm
	if !st.Converged {
		return st, ErrNoConvergence
	}
	return st, nil
}

// SOROptions configures stationary sweeps.
type SOROptions struct {
	Omega   float64 // relaxation factor in (0,2); 1 gives Gauss-Seidel
	Tol     float64 // relative residual target; default 1e-10
	MaxIter int     // default 100·n
}

// SOR performs successive over-relaxation sweeps on A·x = b until the
// relative residual reaches Tol. With Omega == 1 this is Gauss-Seidel.
// Rows must have nonzero diagonal entries.
func SOR(a *CSR, x, b []float64, opts SOROptions) (IterStats, error) {
	n := len(b)
	if a.Rows() != n || a.Cols() != n || len(x) != n {
		return IterStats{}, fmt.Errorf("la: SOR dimension mismatch")
	}
	if opts.Omega <= 0 || opts.Omega >= 2 {
		opts.Omega = 1
	}
	if opts.Tol <= 0 {
		opts.Tol = 1e-10
	}
	if opts.MaxIter <= 0 {
		opts.MaxIter = 100 * n
	}
	bnorm := Norm2(b)
	if bnorm == 0 {
		bnorm = 1
	}
	r := make([]float64, n)
	var st IterStats
	for st.Iterations = 0; st.Iterations < opts.MaxIter; st.Iterations++ {
		a.Residual(r, b, x)
		st.Residual = Norm2(r)
		if st.Residual <= opts.Tol*bnorm {
			st.Converged = true
			return st, nil
		}
		for i := 0; i < n; i++ {
			cols, vals := a.RowNNZ(i)
			s := b[i]
			diag := 0.0
			for k, j := range cols {
				if j == i {
					diag = vals[k]
					continue
				}
				s -= vals[k] * x[j]
			}
			if diag == 0 {
				return st, ErrSingular
			}
			x[i] = (1-opts.Omega)*x[i] + opts.Omega*s/diag
		}
	}
	a.Residual(r, b, x)
	st.Residual = Norm2(r)
	st.Converged = st.Residual <= opts.Tol*bnorm
	if !st.Converged {
		return st, ErrNoConvergence
	}
	return st, nil
}

// ILU0 is an incomplete LU factorization with zero fill, usable as a
// preconditioner for CG (on SPD systems use IC-like behaviour) and BiCGSTAB.
type ILU0 struct {
	lu *CSR
}

// NewILU0 computes the ILU(0) factorization of a. The factor shares a's
// sparsity pattern; a is not modified.
func NewILU0(a *CSR) (*ILU0, error) {
	lu := a.Clone()
	n := lu.Rows()
	for i := 0; i < n; i++ {
		cols, vals := lu.RowNNZ(i)
		for ki, k := range cols {
			if k >= i {
				break
			}
			dkk := lu.At(k, k)
			if dkk == 0 {
				return nil, ErrSingular
			}
			m := vals[ki] / dkk
			vals[ki] = m
			// Subtract m × row k from row i, but only on i's pattern.
			kcols, kvals := lu.RowNNZ(k)
			for kj, j := range kcols {
				if j <= k {
					continue
				}
				// Find j in row i's pattern at position > ki.
				for t := ki + 1; t < len(cols); t++ {
					if cols[t] == j {
						vals[t] -= m * kvals[kj]
						break
					}
					if cols[t] > j {
						break
					}
				}
			}
		}
	}
	return &ILU0{lu: lu}, nil
}

// Apply solves (L·U)·dst = r with the incomplete factors.
func (p *ILU0) Apply(dst, r []float64) {
	n := p.lu.Rows()
	// Forward: L has unit diagonal.
	for i := 0; i < n; i++ {
		cols, vals := p.lu.RowNNZ(i)
		s := r[i]
		for k, j := range cols {
			if j >= i {
				break
			}
			s -= vals[k] * dst[j]
		}
		dst[i] = s
	}
	// Backward with U.
	for i := n - 1; i >= 0; i-- {
		cols, vals := p.lu.RowNNZ(i)
		s := dst[i]
		diag := 0.0
		for k := len(cols) - 1; k >= 0; k-- {
			j := cols[k]
			if j < i {
				break
			}
			if j == i {
				diag = vals[k]
				continue
			}
			s -= vals[k] * dst[j]
		}
		if diag == 0 {
			diag = 1
		}
		dst[i] = s / diag
	}
}
