package pde

import (
	"fmt"
	"math"

	"hybridpde/internal/la"
	"hybridpde/internal/problem"
)

// Semilinear1D is the coupled reaction system of §3 (Equation 2 generalised
// to d grid points): a one-dimensional semilinear PDE discretised on a
// chain, where each node carries a quadratic reaction term plus
// nearest-neighbour coupling:
//
//	ρᵢ² + ρᵢ + ρ_{i+1} − ρ_{i−1} = RHSᵢ
//
// (off-chain neighbours are dropped, reproducing Equation 2 exactly for
// d = 2). It is a problem.SparseSystem (tridiagonal Jacobian) and reports
// degree 2.
type Semilinear1D struct {
	RHS []float64

	cache jacCache
}

// NewSemilinear1D builds the system with the given right-hand sides.
func NewSemilinear1D(rhs []float64) *Semilinear1D {
	return &Semilinear1D{RHS: la.Copy(rhs)}
}

// Dim returns the number of grid points.
func (s *Semilinear1D) Dim() int { return len(s.RHS) }

// PolynomialDegree reports the quadratic reaction term.
func (s *Semilinear1D) PolynomialDegree() int { return 2 }

// Eval computes the residual.
func (s *Semilinear1D) Eval(u, f []float64) error {
	d := s.Dim()
	if len(u) != d || len(f) != d {
		return fmt.Errorf("pde: Semilinear1D dimension mismatch")
	}
	for i := 0; i < d; i++ {
		f[i] = float64(u[i]*u[i]) + u[i] - s.RHS[i]
		if i+1 < d {
			f[i] += u[i+1]
		}
		if i-1 >= 0 {
			f[i] -= u[i-1]
		}
	}
	return nil
}

// assembleJacobian walks the tridiagonal Jacobian in deterministic order.
func (s *Semilinear1D) assembleJacobian(u []float64, e jacEmitter) {
	d := s.Dim()
	for i := 0; i < d; i++ {
		e.emit(i, i, 2*u[i]+1)
		if i+1 < d {
			e.emit(i, i+1, 1)
		}
		if i-1 >= 0 {
			e.emit(i, i-1, -1)
		}
	}
}

// JacobianCSR returns the tridiagonal Jacobian, refreshing a cached pattern.
func (s *Semilinear1D) JacobianCSR(u []float64) (*la.CSR, error) {
	if len(u) != s.Dim() {
		return nil, fmt.Errorf("pde: Semilinear1D Jacobian dimension mismatch")
	}
	if s.cache.jac == nil {
		s.cache.build(s.Dim(), func(e jacEmitter) { s.assembleJacobian(u, e) })
		return s.cache.jac, nil
	}
	s.cache.beginRefresh()
	s.assembleJacobian(u, &s.cache)
	return s.cache.jac, nil
}

// InitialGuess returns the zero vector — the chain has no previous time
// level, and the paper's §3 examples start reactions from rest.
func (s *Semilinear1D) InitialGuess() []float64 { return make([]float64, s.Dim()) }

// MaxField returns the largest |RHS| value, the dynamic range of the system.
func (s *Semilinear1D) MaxField() float64 {
	m := 0.0
	for _, v := range s.RHS {
		if a := math.Abs(v); a > m {
			m = a
		}
	}
	return m
}

// Equation2 returns the exact two-point system of the paper's Equation 2.
func Equation2(rhs0, rhs1 float64) *Semilinear1D {
	return NewSemilinear1D([]float64{rhs0, rhs1})
}

var _ problem.SparseSystem = (*Semilinear1D)(nil)
