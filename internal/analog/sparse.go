package analog

import (
	"context"
	"fmt"

	"hybridpde/internal/la"
	"hybridpde/internal/nonlin"
)

// SolveSparse runs the continuous Newton method on the fabric for F(u) = 0
// from the initial guess u0 (|u| expected within opts.DynamicRange). It
// serves every plain solve, from the 2-variable examples of §2–3 to the
// 512-variable 16×16 Burgers problem: the quotient loop works on the
// banded Jacobian, as the physical crossbar is sparse ("connectivity
// between tiles and between chips is tree-like with sparse connectivity,
// matching the neighbor-to-neighbor connection pattern for PDEs",
// Figure 5). When the Jacobian drifts singular along the trajectory (high
// Reynolds numbers, §6.1) the finite loop gain ε keeps the dynamics
// defined.
//
// ctx may be nil; a cancelled context aborts the circuit evolution with an
// error wrapping the context's error (a physical chip would simply be
// powered down mid-settle).
func (a *Accelerator) SolveSparse(ctx context.Context, sys nonlin.SparseSystem, u0 []float64, opts SolveOptions) (Solution, error) {
	ss, err := newScaledSparse(sys, opts.DynamicRange)
	if err != nil {
		return Solution{}, err
	}
	return a.run(ctx, ss, u0, opts, fabricMode{
		loop: bandedLoop(ss.Dim(), func(_ float64, w, g []float64) (*la.CSR, error) {
			if err := ss.Eval(w, g); err != nil {
				return nil, err
			}
			return ss.JacobianCSR(w)
		}),
		start: "initial guess", evolution: "circuit",
	})
}

// bandedLoop is the quotient loop: δ = (JᵀJ + εI)⁻¹·Jᵀg, formed and factored
// in band storage by a band Cholesky, since JᵀJ + εI is symmetric positive
// definite. linearize writes the mode's scaled residual g at the saturated
// state w and circuit time t and returns its Jacobian, whose pattern must
// stay fixed along the run.
func bandedLoop(n int, linearize func(t float64, w, g []float64) (*la.CSR, error)) quotientLoop {
	g := make([]float64, n)
	// The Jacobian pattern is fixed, so one banded workspace (sized for
	// the doubled normal-equation bandwidth) serves every derivative
	// evaluation of the circuit simulation.
	var chol *la.BandCholesky
	return func(t float64, w []float64, cells []*NewtonCell, delta []float64) error {
		jac, err := linearize(t, w, g)
		if err != nil {
			return err
		}
		for i, c := range cells {
			g[i] = float64((1+c.FuncGain)*g[i]) + c.FuncOffset
			jac.ScaleRow(i, 1+c.JacGain)
		}
		if chol == nil {
			klA, kuA := la.Bandwidths(jac)
			chol = la.NewBandCholesky(n, klA+kuA)
		}
		if err := chol.FactorNormalFrom(jac, QuotientLoopEpsilon); err != nil {
			return fmt.Errorf("analog: quotient loop failed: %w", err)
		}
		jac.MulTransVec(delta, g)
		return chol.SolveInto(delta)
	}
}
