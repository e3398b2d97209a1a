// Package nonlin implements the digital algorithms for nonlinear systems of
// algebraic equations that the paper runs beside its analog accelerator:
//
//   - the classical and damped Newton methods (§2.1), including the
//     halve-until-converged damping schedule of the paper's baseline solver
//     (§6.1), dense (Newton) and banded-sparse with chord reuse (a
//     SparseSolver value; its zero value is ready to use);
//   - the global Newton homotopy (§3.2) on the same banded loop
//     (NewtonHomotopy), the degradation ladder's last rung, and the
//     trivial start system of the paper's homotopy figure
//     (SquareRootsSimple), which the analog chip's continuation mode uses;
//   - the Armijo line-search and dogleg trust-region globalisations, used
//     only by the ablation experiment.
//
// The continuous Newton method (§2.2), the ODE du/dt = −J⁻¹F(u), is not
// here: the fabric model in internal/analog integrates its own flow.
package nonlin

import (
	"errors"
	"fmt"

	"hybridpde/internal/la"
	"hybridpde/internal/par"
)

// System is a square nonlinear algebraic system F(u) = 0 with a dense
// Jacobian, suitable for the small problems that fit on the analog
// accelerator (up to a few hundred unknowns).
type System interface {
	// Dim returns the number of unknowns (= number of equations).
	Dim() int
	// Eval writes F(u) into f. len(u) == len(f) == Dim().
	Eval(u, f []float64) error
	// Jacobian writes J(u) into jac, a Dim()×Dim() matrix.
	Jacobian(u []float64, jac *la.Dense) error
}

// SparseSystem is a nonlinear system with a sparse Jacobian, used for the
// PDE stencil systems whose Jacobians are banded (§4.4).
type SparseSystem interface {
	Dim() int
	Eval(u, f []float64) error
	// JacobianCSR returns J(u). Implementations may reuse internal storage;
	// the caller must not retain the matrix across calls.
	JacobianCSR(u []float64) (*la.CSR, error)
}

// PoolAware is implemented by systems whose residual and Jacobian walks can
// fan out across a worker pool. The SparseSolver hands its pool to the
// system at the start of each Solve (nil when running serial); systems must
// produce bit-identical results at every pool size — the repo-wide
// determinism contract (DESIGN.md, "Parallel execution model").
type PoolAware interface {
	SetPool(p *par.Pool)
}

// DenseAdapter turns a SparseSystem into a System by expanding the Jacobian.
// Used when a PDE block is small enough for the dense analog path.
type DenseAdapter struct {
	S SparseSystem
}

// Dim returns the dimension of the wrapped system.
func (a DenseAdapter) Dim() int { return a.S.Dim() }

// Eval evaluates the wrapped system.
func (a DenseAdapter) Eval(u, f []float64) error { return a.S.Eval(u, f) }

// Jacobian expands the sparse Jacobian into jac.
func (a DenseAdapter) Jacobian(u []float64, jac *la.Dense) error {
	j, err := a.S.JacobianCSR(u)
	if err != nil {
		return err
	}
	jac.Zero()
	for i := 0; i < j.Rows(); i++ {
		cols, vals := j.RowNNZ(i)
		for k, c := range cols {
			jac.Set(i, c, vals[k])
		}
	}
	return nil
}

// FuncSystem builds a System from plain closures, convenient for tests and
// the tutorial problems of §2–3.
type FuncSystem struct {
	N int
	F func(u, f []float64) error
	J func(u []float64, jac *la.Dense) error
}

// Dim returns N.
func (s FuncSystem) Dim() int { return s.N }

// Eval invokes F.
func (s FuncSystem) Eval(u, f []float64) error { return s.F(u, f) }

// Jacobian invokes J, falling back to finite differences when J is nil.
func (s FuncSystem) Jacobian(u []float64, jac *la.Dense) error {
	if s.J != nil {
		return s.J(u, jac)
	}
	return FiniteDifferenceJacobian(s, u, jac)
}

// FiniteDifferenceJacobian fills jac with a forward-difference approximation
// of the Jacobian of sys at u.
func FiniteDifferenceJacobian(sys System, u []float64, jac *la.Dense) error {
	n := sys.Dim()
	f0 := make([]float64, n)
	if err := sys.Eval(u, f0); err != nil {
		return err
	}
	fp := make([]float64, n)
	up := la.Copy(u)
	const eps = 1e-7
	for j := 0; j < n; j++ {
		h := eps * (1 + absf(u[j]))
		up[j] = u[j] + h
		if err := sys.Eval(up, fp); err != nil {
			return err
		}
		up[j] = u[j]
		for i := 0; i < n; i++ {
			jac.Set(i, j, (fp[i]-f0[i])/h)
		}
	}
	return nil
}

func absf(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// ErrDiverged is returned when an iteration leaves the basin of any root
// (residual growing without bound or state becoming non-finite).
var ErrDiverged = errors.New("nonlin: iteration diverged")

// ErrNoConvergence is returned when the iteration budget is exhausted.
var ErrNoConvergence = errors.New("nonlin: no convergence within iteration budget")

// ErrJacobianSingular wraps la.ErrSingular with iteration context.
type JacobianSingularError struct {
	Iteration int
	Err       error
}

// Error implements the error interface.
func (e *JacobianSingularError) Error() string {
	return fmt.Sprintf("nonlin: singular Jacobian at iteration %d: %v", e.Iteration, e.Err)
}

// Unwrap exposes the underlying cause.
func (e *JacobianSingularError) Unwrap() error { return e.Err }
