// Package nonlin implements the digital algorithms for nonlinear systems of
// algebraic equations that the paper runs beside its analog accelerator.
// Every system is a SparseSystem, from the 2-variable examples of §2–3 to
// the 512-variable Burgers stencils, and every solve runs one banded loop:
//
//   - the classical and damped Newton methods (§2.1), including the
//     halve-until-converged damping schedule of the paper's baseline solver
//     (§6.1), with optional chord reuse (a SparseSolver value; its zero
//     value is ready to use);
//   - the global Newton homotopy (§3.2) on the same banded loop
//     (NewtonHomotopy), the degradation ladder's last rung, and the
//     trivial start system of the paper's homotopy figure
//     (SquareRootsSimple), which the analog chip's continuation mode uses.
//
// The Armijo line search and the dogleg trust region, which only the
// ablation experiment runs, live beside it in internal/exp.
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

// SparseSystem is a square nonlinear system F(u) = 0 with a sparse
// Jacobian: the PDE stencil systems, whose Jacobians are banded (§4.4), and
// the small examples of §2–3, whose 2×2 Jacobians are stored full.
type SparseSystem interface {
	// Dim returns the number of unknowns (= number of equations).
	Dim() int
	// Eval writes F(u) into f. len(u) == len(f) == Dim().
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
