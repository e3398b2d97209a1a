package core

import (
	"context"
	"errors"
	"fmt"
	"math"

	"hybridpde/internal/la"
	"hybridpde/internal/nonlin"
	"hybridpde/internal/stats"
)

// GoldenSolve produces the certified reference solution of §6.1: a damped
// Newton solver taking deliberately small steps, whose result is verified
// to satisfy the nonlinear system before being returned. ctx may be nil.
func GoldenSolve(ctx context.Context, sys nonlin.SparseSystem, u0 []float64) ([]float64, error) {
	var ns nonlin.SparseSolver
	res, err := ns.Solve(ctx, sys, u0, nonlin.NewtonOptions{
		Tol:      1e-12,
		MaxIter:  3000,
		Damping:  0.2,
		AutoDamp: false,
	})
	if err != nil {
		// Retry with the full auto-damping schedule before giving up.
		res, err = ns.Solve(ctx, sys, u0, nonlin.NewtonOptions{
			Tol:      1e-12,
			MaxIter:  1000,
			AutoDamp: true,
		})
		if err != nil {
			return nil, fmt.Errorf("core: golden solve failed: %w", err)
		}
	}
	// Certification: the solution must actually satisfy the system.
	f := make([]float64, sys.Dim())
	if err := sys.Eval(res.U, f); err != nil {
		return nil, err
	}
	if r := la.Norm2(f); r > 1e-9 {
		return nil, fmt.Errorf("core: golden solution certification failed: ‖F‖ = %g", r)
	}
	return res.U, nil
}

// ErrAccuracyNotReached reports an equal-accuracy run that never hit the
// target RMS against the golden solution.
var ErrAccuracyNotReached = errors.New("core: solver did not reach target accuracy")

// AccuracyResult reports an equal-accuracy digital run (Figure 7 protocol):
// the solver stops as soon as its Equation-6 RMS error against the golden
// solution drops to targetRMS — the accuracy the analog chip delivers.
type AccuracyResult struct {
	U          []float64
	Iterations int
	FactorOps  int64
	RMS        float64
	Damping    float64
	TotalIters int
	Attempts   int
}

// DigitalToAccuracy runs the baseline damped Newton solver until its
// solution is within targetRMS (normalised by scale) of the golden
// solution, using the paper's halve-on-failure damping schedule and its
// timing protocol (only the successful attempt's iterations are counted).
// ctx may be nil; a cancelled context aborts between iterations with a
// wrapped context error.
func DigitalToAccuracy(ctx context.Context, sys nonlin.SparseSystem, u0, golden []float64, targetRMS, scale float64) (AccuracyResult, error) {
	var out AccuracyResult
	n := sys.Dim()
	if len(u0) != n || len(golden) != n {
		return out, errors.New("core: DigitalToAccuracy dimension mismatch")
	}
	h := 1.0
	const maxIterPerAttempt = 600
	for ; h >= 1.0/1024; h /= 2 {
		out.Attempts++
		u := la.Copy(u0)
		f := make([]float64, n)
		delta := make([]float64, n)
		var iters int
		var ops int64
		failed := false
		if err := sys.Eval(u, f); err != nil {
			return out, err
		}
		r0 := la.Norm2(f)
		for iters = 0; iters < maxIterPerAttempt; iters++ {
			if ctx != nil {
				if cerr := ctx.Err(); cerr != nil {
					out.TotalIters += iters
					return out, fmt.Errorf("core: equal-accuracy solve aborted: %w", cerr)
				}
			}
			if stats.RMSError(u, golden, scale) <= targetRMS {
				out.U = u
				out.Iterations = iters
				out.FactorOps = ops
				out.RMS = stats.RMSError(u, golden, scale)
				out.Damping = h
				out.TotalIters += iters
				return out, nil
			}
			j, err := sys.JacobianCSR(u)
			if err != nil {
				failed = true
				break
			}
			lu, err := la.FactorBandLU(j)
			if err != nil {
				failed = true
				break
			}
			ops += lu.FactorOps
			if err := lu.Solve(delta, f); err != nil {
				failed = true
				break
			}
			la.Axpy(-h, delta, u)
			if err := sys.Eval(u, f); err != nil {
				failed = true
				break
			}
			r := la.Norm2(f)
			if math.IsNaN(r) || r > 1e8*(1+r0) {
				failed = true
				break
			}
		}
		out.TotalIters += iters
		if failed || iters >= maxIterPerAttempt {
			continue
		}
	}
	return out, ErrAccuracyNotReached
}
