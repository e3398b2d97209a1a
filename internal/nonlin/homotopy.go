package nonlin

import (
	"context"
	"errors"
	"fmt"
	"math"

	"hybridpde/internal/la"
	"hybridpde/internal/par"
)

// The Newton homotopy's path tracker: homotopySteps base λ steps, halved
// down to 1/minShrink of the base before a fold is declared, and a damped
// corrector with target homotopyTol and homotopyMaxIter iterations per
// damping attempt (hopMaxIter when restarting past a fold). The answer
// must reach ‖F‖ ≤ 10·homotopyTol.
const (
	homotopySteps   = 30
	minShrink       = 256
	homotopyTol     = 1e-10
	homotopyMaxIter = 50
	hopMaxIter      = 200
)

// newtonHomotopy is G(u, λ) = F(u) − (1−λ)·F(u₀). Its Jacobian is J_F for
// every λ, so JacobianCSR is F's own and the corrector runs on F's band.
type newtonHomotopy struct {
	SparseSystem
	f0     []float64
	lambda float64
}

func (g *newtonHomotopy) Eval(u, f []float64) error {
	if err := g.SparseSystem.Eval(u, f); err != nil {
		return err
	}
	c := 1 - g.lambda
	for i := range f {
		f[i] -= float64(c * g.f0[i])
	}
	return nil
}

// SetPool hands the solver's pool on to F when F can use it.
func (g *newtonHomotopy) SetPool(p *par.Pool) {
	if pa, ok := g.SparseSystem.(PoolAware); ok {
		pa.SetPool(p)
	}
}

// NewtonHomotopy runs the global Newton homotopy (§3.2) from u0: G(u, λ) =
// F(u) − (1−λ)·F(u₀) has the root u₀ at λ = 0, and continuation drags it
// along a root path to a root of F at λ = 1. Each λ step takes the tangent
// predictor dρ/dλ = −J⁻¹·F(u₀) (Davidenko's equation) and then a damped
// banded Newton corrector; a corrector that fails halves the step. It is
// the degradation ladder's last-resort rung: when damped Newton has
// diverged from every available seed, path tracking replaces the basin
// gamble.
//
// procs is the corrector's NewtonOptions.Procs. The Result sums the work
// of every corrector solve (Iterations, TotalIters, Attempts) and adds the
// tangent solves to LinearSolves, Refactorizations and FactorOps. ctx may
// be nil; a cancelled context aborts with a wrapped context error.
func NewtonHomotopy(ctx context.Context, sys SparseSystem, u0 []float64, procs int) (Result, error) {
	n := sys.Dim()
	if len(u0) != n {
		return Result{}, errors.New("nonlin: homotopy start has wrong dimension")
	}
	g := &newtonHomotopy{SparseSystem: sys, f0: make([]float64, n)}
	if err := sys.Eval(u0, g.f0); err != nil {
		return Result{}, err
	}
	opts := NewtonOptions{Tol: homotopyTol, MaxIter: homotopyMaxIter, AutoDamp: true, Procs: procs}
	var s SparseSolver
	defer s.Close()
	s.bind(g, opts)

	var res Result
	u := la.Copy(u0)
	uPrev := make([]float64, n)
	tangent := make([]float64, n)
	const baseDl = 1.0 / homotopySteps
	dl := baseDl
	for lambda := 0.0; lambda < 1; {
		step := min(dl, 1-lambda)
		copy(uPrev, u)
		work, err := s.solveStep(u, g.f0, tangent)
		switch {
		case err == nil:
			res.LinearSolves++
			res.Refactorizations++
			res.FactorOps += work.ops
			la.Axpy(-step, tangent, u)
		case !errors.Is(err, la.ErrSingular):
			return res, err
		}
		// A singular tangent system falls through to the plain corrector.
		g.lambda = lambda + step
		r, err := s.Solve(ctx, g, u, opts)
		addWork(&res, r)
		if err != nil {
			if isCtxErr(err) {
				return res, err
			}
			// Retry a shorter step from the last accepted point.
			copy(u, uPrev)
			dl /= 2
			if dl >= baseDl/minShrink {
				continue
			}
			if r, err = basinHop(ctx, &s, g, uPrev, opts, &res); err != nil {
				return res, fmt.Errorf("nonlin: homotopy fold at λ=%.4f and basin hop failed: %w", g.lambda, err)
			}
			dl = baseDl
		}
		copy(u, r.U)
		lambda += step
		if dl < baseDl {
			dl *= 2 // recover toward the base step after a shrink
		}
	}
	res.U = u
	f := tangent // free once λ reaches 1
	if err := sys.Eval(u, f); err != nil {
		return res, err
	}
	res.Residual = la.Norm2(f)
	res.Converged = res.Residual <= 10*homotopyTol
	if !res.Converged {
		return res, ErrNoConvergence
	}
	return res, nil
}

// basinHop continues past a fold, where the tracked root collides with
// another and leaves the real domain. The analog system does not fail
// there: its state slides off the vanished root into another basin of the
// current G (Figure 3: "all choices of initial conditions lead to one
// correct solution or another"). basinHop models the slide with damped
// Newton restarts from deterministic perturbations of the fold point uFold:
// ±e₀, ±e₁, …, ±e₍ₙ₋₁₎ and then ±1/√n, scaled by 0.1, 0.3 and 1 times
// 1+‖uFold‖, until one converges. Each restart's work is added to acc.
func basinHop(ctx context.Context, s *SparseSolver, g SparseSystem, uFold []float64, opts NewtonOptions, acc *Result) (Result, error) {
	n := len(uFold)
	opts.MaxIter = hopMaxIter
	scale := 1 + la.Norm2(uFold)
	diag := 1 / math.Sqrt(float64(n))
	u := make([]float64, n)
	var err error
	for _, mag := range [...]float64{0.1, 0.3, 1} {
		for d := 0; d < 2*n+2; d++ {
			step := mag * scale
			if d%2 == 1 {
				step = -step
			}
			copy(u, uFold)
			if k := d / 2; k < n {
				u[k] += step
			} else {
				for i := range u {
					u[i] += float64(step * diag)
				}
			}
			var r Result
			r, err = s.Solve(ctx, g, u, opts)
			addWork(acc, r)
			if err == nil || isCtxErr(err) {
				return r, err
			}
		}
	}
	return Result{}, err
}

// addWork adds one corrector solve's work counts to acc.
func addWork(acc *Result, r Result) {
	acc.Iterations += r.Iterations
	acc.TotalIters += r.TotalIters
	acc.Attempts += r.Attempts
	acc.LinearSolves += r.LinearSolves
	acc.Refactorizations += r.Refactorizations
	acc.FactorOps += r.FactorOps
}

// SquareRootsSimple returns the paper's trivial homotopy start system
// S(ρ)ᵢ = ρᵢ² − 1 (Equation 3), whose 2ᵈ roots are ρᵢ = ±1. Its Jacobian is
// the diagonal 2ρ.
func SquareRootsSimple(dim int) SparseSystem {
	c := la.NewCOO(dim, dim)
	for i := 0; i < dim; i++ {
		c.Append(i, i, 0)
	}
	return squareRoots{jac: c.ToCSR()}
}

type squareRoots struct{ jac *la.CSR }

func (s squareRoots) Dim() int { return s.jac.Rows() }

func (s squareRoots) Eval(u, f []float64) error {
	for i := range f {
		f[i] = float64(u[i]*u[i]) - 1
	}
	return nil
}

// JacobianCSR refreshes the diagonal in place: slot i holds entry (i, i).
func (s squareRoots) JacobianCSR(u []float64) (*la.CSR, error) {
	for i, v := range u {
		s.jac.SetSlotValue(i, 2*v)
	}
	return s.jac, nil
}
