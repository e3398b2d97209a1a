package analog

import (
	"context"
	"errors"
	"fmt"
	"math"

	"hybridpde/internal/la"
	"hybridpde/internal/nonlin"
	"hybridpde/internal/ode"
)

// scaledSparse is the sparse-Jacobian counterpart of scaledSystem, used by
// the scaled-up accelerator models whose PDE stencil Jacobians are banded.
// Running the dense O(n³) quotient loop for a 512-variable 16×16 problem
// would be needlessly slow in simulation; the physical crossbar is sparse
// anyway ("connectivity between tiles and between chips is tree-like with
// sparse connectivity, matching the neighbor-to-neighbor connection pattern
// for PDEs", Figure 5).
type scaledSparse struct {
	inner nonlin.SparseSystem
	s     float64
	deg   int
	fNorm float64
	jNorm float64
	uBuf  []float64
}

func newScaledSparse(sys nonlin.SparseSystem, dynamicRange float64) (*scaledSparse, error) {
	deg := 2
	if d, ok := sys.(DegreeReporter); ok {
		deg = d.PolynomialDegree()
		if deg < 0 {
			return nil, ErrTranscendental
		}
		if deg == 0 {
			return nil, fmt.Errorf("analog: degree-0 system is constant, nothing to solve")
		}
	}
	if dynamicRange <= 0 {
		dynamicRange = 1
	}
	sp := math.Pow(dynamicRange, float64(deg))
	return &scaledSparse{
		inner: sys, s: dynamicRange, deg: deg,
		fNorm: 1 / sp, jNorm: dynamicRange / sp,
		uBuf: make([]float64, sys.Dim()),
	}, nil
}

func (ss *scaledSparse) Dim() int { return ss.inner.Dim() }

func (ss *scaledSparse) Eval(w, g []float64) error {
	for i, v := range w {
		ss.uBuf[i] = ss.s * v
	}
	if err := ss.inner.Eval(ss.uBuf, g); err != nil {
		return err
	}
	for i := range g {
		g[i] *= ss.fNorm
	}
	return nil
}

func (ss *scaledSparse) JacobianCSR(w []float64) (*la.CSR, error) {
	for i, v := range w {
		ss.uBuf[i] = ss.s * v
	}
	j, err := ss.inner.JacobianCSR(ss.uBuf)
	if err != nil {
		return nil, err
	}
	j.Scale(ss.jNorm)
	return j, nil
}

func (ss *scaledSparse) toProblem(w []float64) []float64 {
	u := make([]float64, len(w))
	for i, v := range w {
		u[i] = ss.s * v
	}
	return u
}

// SolveSparse runs the continuous Newton method on the fabric for a sparse
// PDE stencil system. Semantics match Solve; only the quotient-loop solve
// exploits the banded Jacobian. When the Jacobian drifts singular along the
// trajectory (high Reynolds numbers, §6.1) the finite loop gain ε keeps the
// dynamics defined, exactly as in the dense path.
//
// ctx may be nil; a cancelled context aborts the circuit evolution with an
// error wrapping the context's error (a physical chip would simply be
// powered down mid-settle).
func (a *Accelerator) SolveSparse(ctx context.Context, sys nonlin.SparseSystem, u0 []float64, opts SolveOptions) (Solution, error) {
	opts.defaults()
	n := sys.Dim()
	if len(u0) != n {
		return Solution{}, errors.New("analog: initial guess has wrong dimension")
	}
	ss, err := newScaledSparse(sys, opts.DynamicRange)
	if err != nil {
		return Solution{}, err
	}
	if n > a.usableCapacity() {
		return Solution{}, fmt.Errorf("%w: %d variables exceed %d usable tiles", ErrInsufficientHardware, n, a.usableCapacity())
	}
	cells, err := a.Fabric.AllocateCells(n)
	if err != nil {
		return Solution{}, err
	}
	defer a.Fabric.FreeAll()
	a.beginRun()

	w0 := make([]float64, n)
	for i, v := range u0 {
		w0[i] = quantize(clamp(a.dacIn(i, v/ss.s), 1), a.Fabric.Config.DACBits)
	}

	g := make([]float64, n)
	jtg := make([]float64, n)
	wsat := make([]float64, n)
	sat := a.satLimit()
	slew := a.Fabric.Config.SlewLimit
	noisy := !opts.DisableNoise
	// The Jacobian pattern is fixed, so one banded workspace (sized for
	// the doubled normal-equation bandwidth) serves every derivative
	// evaluation of the circuit simulation.
	var lu *la.BandLU
	flow := func(t float64, w, dwdt []float64) error {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("analog: solve aborted: %w", err)
			}
		}
		for i := range w {
			wsat[i] = clamp(w[i], sat)
		}
		if err := ss.Eval(wsat, g); err != nil {
			return err
		}
		jac, err := ss.JacobianCSR(wsat)
		if err != nil {
			return err
		}
		if noisy {
			for i := 0; i < n; i++ {
				c := cells[i]
				g[i] = (1+c.FuncGain)*g[i] + c.FuncOffset
				jac.ScaleRow(i, 1+c.JacGain)
			}
		}
		// Finite-gain gradient-descent quotient loop (same form as the
		// dense path): δ = (JᵀJ + εI)⁻¹·Jᵀg. Smooth across singular
		// Jacobians and never moves a true root.
		if lu == nil {
			klA, kuA := la.Bandwidths(jac)
			b := klA + kuA
			lu = la.NewBandLUWorkspace(n, b, b)
		}
		if err := lu.FactorNormalFrom(jac, QuotientLoopEpsilon); err != nil {
			return fmt.Errorf("analog: quotient loop failed: %w", err)
		}
		jac.MulTransVec(jtg, g)
		copy(dwdt, jtg)
		if err := lu.SolveInto(dwdt); err != nil {
			return err
		}
		for i := range dwdt {
			d := -dwdt[i]
			if noisy {
				d += cells[i].IntOffset
			}
			dwdt[i] = softClamp(a.drive(t, i, w[i], d), slew)
		}
		return nil
	}

	sr, err := ode.IntegrateToSteadyState(flow, w0, ode.SteadyStateOptions{
		TMax:     opts.TMaxTau,
		DerivTol: settleDerivTol,
		Adaptive: ode.AdaptiveOptions{AbsTol: 1e-6, RelTol: 1e-5, MaxSteps: opts.MaxSteps, MaxEvals: 6 * opts.MaxSteps},
	})
	if errors.Is(err, ode.ErrTooManySteps) {
		// Budget exhausted without settling: treat as a chip read out
		// before its deadline — a non-converged measurement, not an error.
		err = nil
		sr.Settled = false
	}
	if err != nil {
		return Solution{}, fmt.Errorf("analog: circuit evolution failed: %w", err)
	}

	sol := Solution{W: la.Copy(sr.Y)}
	wq := make([]float64, n)
	for i, v := range sr.Y {
		q := a.adcOut(i, v)
		if noisy {
			q = quantize(clamp(q, 1), a.Fabric.Config.ADCBits)
		}
		wq[i] = q
	}
	sol.U = ss.toProblem(wq)
	f := make([]float64, n)
	if err := sys.Eval(sol.U, f); err != nil {
		return sol, err
	}
	sol.Residual = la.Norm2(f)
	sol.Converged = sr.Settled
	if sr.Settled {
		sol.SettleTau = sr.SettleTime
	} else {
		sol.SettleTau = sr.T
	}
	sol.SettleSeconds = sol.SettleTau * TimeConstantSeconds
	sol.EnergyJoules = a.PeakPowerWatts(n) * sol.SettleSeconds
	return sol, nil
}
