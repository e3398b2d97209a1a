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
		}).solve,
		start: "initial guess", evolution: "circuit",
	})
}

// quotientRefreshTol bounds, relative to δ, the correction one refinement
// step with the held factor may make before the factor is rebuilt. The
// refined δ's own error is then of second order: at most 0.2 % on the
// n = 8 readout sweep, a sixth of a calibrated cell's residual gain error
// (10 % raw × 0.12), and a settled state lies as close to the exact
// equilibrium as with a fresh factor (TestReadoutMatchesEquilibrium).
const quotientRefreshTol = 0.03

// bandedQuotient is bandedLoop's state.
type bandedQuotient struct {
	// linearize writes the mode's scaled residual g at the saturated state
	// w and circuit time t and returns its Jacobian, whose pattern must
	// stay fixed along the run.
	linearize func(t float64, w, g []float64) (*la.CSR, error)
	// g is the residual; rhs, jd and c are Jᵀg, J·δ and the correction.
	g, rhs, jd, c []float64
	// chol holds JᵀJ + εI factored at some earlier state of the run.
	chol *la.BandCholesky
	// factors counts factorisations, for tests.
	factors int
}

// bandedLoop is the quotient loop: JᵀJ + εI is symmetric positive definite,
// so it is formed and factored in band storage by a band Cholesky. The
// factor is held across evaluations while it still solves the current
// system well. Each evaluation solves with the held factor F, then makes
// one step of iterative refinement: the correction c = F⁻¹(Jᵀg −
// (JᵀJ+εI)δ) costs two sparse products and a second pair of triangular
// solves. When ‖c‖ ≤ quotientRefreshTol·‖δ‖ the refined δ is used;
// otherwise the loop refactors at the current state and solves exactly.
// The integrator so sees the exact quotient to second order along the
// whole trajectory, and whether a run settles does not hinge on which
// factor a stage used (TestFabricSettlesOnHardProblems in internal/exp).
func bandedLoop(n int, linearize func(t float64, w, g []float64) (*la.CSR, error)) *bandedQuotient {
	return &bandedQuotient{linearize: linearize, g: make([]float64, n), rhs: make([]float64, n), jd: make([]float64, n), c: make([]float64, n)}
}

func (q *bandedQuotient) solve(t float64, w []float64, cells []*NewtonCell, delta []float64) error {
	jac, err := q.linearize(t, w, q.g)
	if err != nil {
		return err
	}
	g := q.g
	for i, c := range cells {
		g[i] = float64((1+c.FuncGain)*g[i]) + c.FuncOffset
		jac.ScaleRow(i, 1+c.JacGain)
	}
	jac.MulTransVec(q.rhs, g)
	copy(delta, q.rhs)
	if q.chol != nil {
		if err := q.chol.SolveInto(delta); err != nil {
			return err
		}
		// c = Jᵀg − JᵀJ·δ − ε·δ, then F⁻¹·c.
		jac.MulVec(q.jd, delta)
		jac.MulTransVec(q.c, q.jd)
		for i, v := range q.c {
			q.c[i] = q.rhs[i] - v - float64(QuotientLoopEpsilon*delta[i])
		}
		if err := q.chol.SolveInto(q.c); err != nil {
			return err
		}
		cc, dd := 0.0, 0.0
		for i, v := range q.c {
			delta[i] += v
			cc += float64(v * v)
			dd += float64(delta[i] * delta[i])
		}
		if cc <= quotientRefreshTol*quotientRefreshTol*dd {
			return nil
		}
		copy(delta, q.rhs)
	} else {
		// The Jacobian pattern is fixed, so one banded workspace (sized
		// for the doubled normal-equation bandwidth) serves every
		// factorisation of the circuit simulation.
		klA, kuA := la.Bandwidths(jac)
		q.chol = la.NewBandCholesky(len(g), klA+kuA)
	}
	if err := q.chol.FactorNormalFrom(jac, QuotientLoopEpsilon); err != nil {
		return fmt.Errorf("analog: quotient loop failed: %w", err)
	}
	q.factors++
	return q.chol.SolveInto(delta)
}
