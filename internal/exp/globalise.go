package exp

import (
	"context"
	"errors"
	"fmt"
	"math"

	"hybridpde/internal/la"
	"hybridpde/internal/nonlin"
)

// The two globalised digital Newton variants the ablation runs beside the
// paper's damping schedule (§2.2: "improved algorithms quickly become
// complex and costly"). Both run on the same SparseSystem contract and band
// LU as nonlin's Newton loop, and allocate freely: they are measured by
// iteration count, never timed.

var errGuessDim = errors.New("exp: initial guess has wrong dimension")

// NewtonArmijo solves F(u) = 0 with full Newton directions and a
// backtracking line search on the merit function ½‖F‖². It reads Tol,
// RelTol and MaxIter of opts; no other field applies.
func NewtonArmijo(ctx context.Context, sys nonlin.SparseSystem, u0 []float64, opts nonlin.NewtonOptions) (nonlin.Result, error) {
	n := sys.Dim()
	if len(u0) != n {
		return nonlin.Result{}, errGuessDim
	}
	u := la.Copy(u0)
	f := make([]float64, n)
	delta := make([]float64, n)
	utrial := make([]float64, n)
	res := nonlin.Result{U: u, Attempts: 1, DampingUsed: 1}
	if err := sys.Eval(u, f); err != nil {
		return res, err
	}
	target := opts.Tol
	if r0 := la.Norm2(f); opts.RelTol > 0 && opts.RelTol*r0 > target {
		target = opts.RelTol * r0
	}
	for res.Iterations = 0; res.Iterations < opts.MaxIter; res.Iterations++ {
		r := la.Norm2(f)
		res.Residual = r
		if r <= target {
			res.Converged = true
			res.TotalIters = res.Iterations
			return res, nil
		}
		if err := ctx.Err(); err != nil {
			return res, fmt.Errorf("exp: Armijo solve aborted: %w", err)
		}
		jac, err := sys.JacobianCSR(u)
		if err != nil {
			return res, err
		}
		lu, err := la.FactorBandLU(jac)
		if err == nil {
			err = lu.Solve(delta, f)
		}
		if err != nil {
			return res, &nonlin.JacobianSingularError{Iteration: res.Iterations, Err: err}
		}
		res.LinearSolves++
		// Backtrack until sufficient decrease: ‖F(u−λδ)‖ ≤ (1−αλ)‖F(u)‖.
		const alpha = 1e-4
		lambda := 1.0
		for {
			copy(utrial, u)
			la.Axpy(-lambda, delta, utrial)
			if err := sys.Eval(utrial, f); err != nil {
				return res, err
			}
			if finite(f) && la.Norm2(f) <= (1-float64(alpha*lambda))*r {
				break
			}
			lambda /= 2
			if lambda < 1e-12 {
				return res, nonlin.ErrDiverged
			}
		}
		copy(u, utrial)
	}
	res.TotalIters = res.Iterations
	return res, nonlin.ErrNoConvergence
}

// The dogleg trust region's start radius and the cap on its growth.
const (
	trustInitialRadius = 1.0
	trustMaxRadius     = 100.0
)

// trustRegion solves F(u) = 0 by minimising the merit function ½‖F(u)‖²
// with Powell's dogleg step: it blends the steepest-descent (Cauchy)
// direction with the Newton step inside an adaptive trust radius. It is the
// modern globally convergent digital baseline, stronger than the paper's
// damped-Newton schedule on badly scaled problems. It stops when
// ‖F(u)‖₂ ≤ tol or after maxIter iterations.
func trustRegion(sys nonlin.SparseSystem, u0 []float64, tol float64, maxIter int) (nonlin.Result, error) {
	n := sys.Dim()
	if len(u0) != n {
		return nonlin.Result{}, errGuessDim
	}
	u := la.Copy(u0)
	f := make([]float64, n)
	fTrial := make([]float64, n)
	uTrial := make([]float64, n)
	grad := make([]float64, n)
	newton := make([]float64, n)
	step := make([]float64, n)
	jv := make([]float64, n)
	res := nonlin.Result{U: u, Attempts: 1, DampingUsed: 1}

	if err := sys.Eval(u, f); err != nil {
		return res, err
	}
	radius := trustInitialRadius
	for res.Iterations = 0; res.Iterations < maxIter; res.Iterations++ {
		r := la.Norm2(f)
		res.Residual = r
		if r <= tol {
			res.Converged = true
			res.TotalIters = res.Iterations
			return res, nil
		}
		jac, err := sys.JacobianCSR(u)
		if err != nil {
			return res, err
		}
		// grad = Jᵀ·F, the gradient of the merit function.
		jac.MulTransVec(grad, f)
		gradNorm := la.Norm2(grad)
		if gradNorm < 1e-300 {
			// Stationary point of the merit function that is not a root.
			return res, nonlin.ErrDiverged
		}
		// Newton step where the Jacobian is nonsingular.
		haveNewton := false
		if lu, err := la.FactorBandLU(jac); err == nil && lu.Solve(newton, f) == nil {
			for i := range newton {
				newton[i] = -newton[i]
			}
			haveNewton = true
			res.LinearSolves++
		}
		// Cauchy point: α = ‖g‖² / ‖J·g‖².
		jac.MulVec(jv, grad)
		jgNorm := la.Norm2(jv)
		alpha := 0.0
		if jgNorm > 0 {
			alpha = float64(gradNorm*gradNorm) / float64(jgNorm*jgNorm)
		}
		doglegStep(step, grad, alpha, newton, haveNewton, radius)

		// Evaluate the trial point and the reduction ratio.
		copy(uTrial, u)
		la.Axpy(1, step, uTrial)
		if err := sys.Eval(uTrial, fTrial); err != nil {
			return res, err
		}
		rt := la.Norm2(fTrial)
		actual := float64(0.5*r*r) - float64(0.5*rt*rt)
		// Predicted reduction from the linear model: ½‖F‖² − ½‖F + J·s‖².
		jac.MulVec(jv, step)
		predTail := 0.0
		for i, v := range jv {
			t := f[i] + v
			predTail += float64(t * t)
		}
		predicted := float64(0.5*r*r) - float64(0.5*predTail)
		rho := -1.0
		if predicted > 0 {
			rho = actual / predicted
		}
		stepNorm := la.Norm2(step)
		switch {
		case rho < 0.25:
			radius = math.Max(0.25*stepNorm, 1e-12)
		case rho > 0.75 && math.Abs(stepNorm-radius) < 1e-12*radius:
			radius = math.Min(2*radius, trustMaxRadius)
		}
		if rho > 1e-4 && finite(fTrial) {
			copy(u, uTrial)
			copy(f, fTrial)
		}
		if radius < 1e-14 {
			return res, nonlin.ErrNoConvergence
		}
	}
	res.TotalIters = res.Iterations
	return res, nonlin.ErrNoConvergence
}

// doglegStep writes the dogleg step into dst: the Newton step if inside the
// radius, otherwise the blend of the Cauchy point and the Newton direction
// that exits the trust region boundary, or the clipped steepest-descent
// step when no Newton step exists.
func doglegStep(dst, grad []float64, alpha float64, newton []float64, haveNewton bool, radius float64) {
	if haveNewton && la.Norm2(newton) <= radius {
		copy(dst, newton)
		return
	}
	// Cauchy (steepest descent) point: −α·g.
	cauchy := make([]float64, len(dst))
	for i := range cauchy {
		cauchy[i] = -alpha * grad[i]
	}
	cNorm := la.Norm2(cauchy)
	if !haveNewton || cNorm >= radius {
		// Clip steepest descent to the boundary.
		scale := min(radius/math.Max(cNorm, 1e-300), 1)
		for i := range dst {
			dst[i] = cauchy[i] * scale
		}
		return
	}
	// Dogleg segment: cauchy + t·(newton − cauchy) hitting the boundary.
	d := make([]float64, len(dst))
	la.Sub(d, newton, cauchy)
	a := la.Dot(d, d)
	b := 2 * la.Dot(cauchy, d)
	c := float64(cNorm*cNorm) - float64(radius*radius)
	t := 1.0
	if a > 0 {
		if disc := float64(b*b) - float64(4*a*c); disc > 0 {
			t = (-b + math.Sqrt(disc)) / (2 * a)
		}
	}
	t = min(max(t, 0), 1)
	for i := range dst {
		dst[i] = cauchy[i] + float64(t*d[i])
	}
}

func finite(x []float64) bool {
	for _, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}
