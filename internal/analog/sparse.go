package analog

import (
	"context"
	"fmt"

	"hybridpde/internal/la"
	"hybridpde/internal/nonlin"
)

// SolveSparse runs the continuous Newton method on the fabric for a sparse
// PDE stencil system. Semantics match Solve; only the quotient-loop solve
// exploits the banded Jacobian: running the dense O(n³) loop for a
// 512-variable 16×16 problem would be needlessly slow in simulation, and
// the physical crossbar is sparse anyway ("connectivity between tiles and
// between chips is tree-like with sparse connectivity, matching the
// neighbor-to-neighbor connection pattern for PDEs", Figure 5). When the
// Jacobian drifts singular along the trajectory (high Reynolds numbers,
// §6.1) the finite loop gain ε keeps the dynamics defined, exactly as in
// the dense path.
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
		loop:  bandedLoop(ss),
		start: "initial guess", evolution: "circuit",
	})
}

// bandedLoop is the quotient loop of the scaled-up boards: the same
// δ = (JᵀJ + εI)⁻¹·Jᵀg as denseLoop, formed and factored in band storage.
func bandedLoop(ss *scaledSystem) quotientLoop {
	n := ss.Dim()
	g := make([]float64, n)
	// The Jacobian pattern is fixed, so one banded workspace (sized for
	// the doubled normal-equation bandwidth) serves every derivative
	// evaluation of the circuit simulation.
	var lu *la.BandLU
	return func(_ float64, w []float64, cells []*NewtonCell, delta []float64) error {
		if err := ss.Eval(w, g); err != nil {
			return err
		}
		jac, err := ss.JacobianCSR(w)
		if err != nil {
			return err
		}
		for i, c := range cells {
			g[i] = (1+c.FuncGain)*g[i] + c.FuncOffset
			jac.ScaleRow(i, 1+c.JacGain)
		}
		if lu == nil {
			klA, kuA := la.Bandwidths(jac)
			b := klA + kuA
			lu = la.NewBandLUWorkspace(n, b, b)
		}
		if err := lu.FactorNormalFrom(jac, QuotientLoopEpsilon); err != nil {
			return fmt.Errorf("analog: quotient loop failed: %w", err)
		}
		jac.MulTransVec(delta, g)
		return lu.SolveInto(delta)
	}
}
