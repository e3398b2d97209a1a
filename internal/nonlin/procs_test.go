// External test package: the determinism fixture is a real PDE system from
// internal/pde, which itself imports nonlin.
package nonlin_test

import (
	"math/rand"
	"testing"

	"hybridpde/internal/nonlin"
	"hybridpde/internal/pde"
)

// plantedSteady builds the repeated-Newton benchmark fixture: a steady 2-D
// Burgers system with a planted root and a start perturbed off it.
func plantedSteady(t testing.TB, n int) (*pde.BurgersSteady, []float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(80))
	burgers, err := pde.NewBurgers(n, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	steady := pde.NewBurgersSteady(burgers)
	root := make([]float64, steady.Dim())
	for i := range root {
		root[i] = 2*rng.Float64() - 1
	}
	if err := steady.SetRHSForRoot(root); err != nil {
		t.Fatal(err)
	}
	u0 := make([]float64, steady.Dim())
	for i := range root {
		u0[i] = root[i] + 0.05*(2*rng.Float64()-1)
	}
	return steady, u0
}

// TestSparseSolverProcsBitIdentical is the tentpole acceptance test at the
// solver layer: the full sparse Newton solve — parallel Jacobian refresh,
// parallel band-LU factorization, parallel residual walks — returns the
// same bits at every worker count, including the FactorOps accounting.
func TestSparseSolverProcsBitIdentical(t *testing.T) {
	for _, n := range []int{6, 10} {
		steady, u0 := plantedSteady(t, n)
		opts := nonlin.NewtonOptions{Tol: 1e-12, MaxIter: 60}
		solver := new(nonlin.SparseSolver)
		ref, err := solver.Solve(nil, steady, u0, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !ref.Converged {
			t.Fatalf("n=%d: serial reference did not converge", n)
		}
		refU := append([]float64(nil), ref.U...)

		for _, procs := range []int{1, 2, 3, 8} {
			// Fresh solver per procs count: equal results must not depend
			// on warm state left by another configuration.
			s := new(nonlin.SparseSolver)
			o := opts
			o.Procs = procs
			res, err := s.Solve(nil, steady, u0, o)
			if err != nil {
				t.Fatal(err)
			}
			if res.Converged != ref.Converged || res.Iterations != ref.Iterations ||
				res.TotalIters != ref.TotalIters || res.LinearSolves != ref.LinearSolves ||
				res.FactorOps != ref.FactorOps || res.Attempts != ref.Attempts {
				t.Fatalf("n=%d procs=%d: result metadata diverged: got %+v want %+v", n, procs, res, ref)
			}
			if res.Residual != ref.Residual {
				t.Fatalf("n=%d procs=%d: residual %x, want %x", n, procs, res.Residual, ref.Residual)
			}
			for i := range refU {
				if res.U[i] != refU[i] {
					t.Fatalf("n=%d procs=%d: U[%d] = %x, want %x", n, procs, i, res.U[i], refU[i])
				}
			}
			s.Close()
		}
		solver.Close()
	}
}

// TestSparseSolverProcsSwitching re-uses one solver across procs settings:
// pool teardown and rebuild must not disturb results or leak warm state.
func TestSparseSolverProcsSwitching(t *testing.T) {
	steady, u0 := plantedSteady(t, 8)
	opts := nonlin.NewtonOptions{Tol: 1e-12, MaxIter: 60}
	solver := new(nonlin.SparseSolver)
	defer solver.Close()
	var refU []float64
	var refRes nonlin.Result
	for i, procs := range []int{1, 4, 1, 2, 8, 2} {
		o := opts
		o.Procs = procs
		res, err := solver.Solve(nil, steady, u0, o)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			refU = append([]float64(nil), res.U...)
			refRes = res
			continue
		}
		if res.Iterations != refRes.Iterations || res.Residual != refRes.Residual ||
			res.FactorOps != refRes.FactorOps {
			t.Fatalf("procs=%d (step %d): result diverged after switching: got %+v want %+v", procs, i, res, refRes)
		}
		for k := range refU {
			if res.U[k] != refU[k] {
				t.Fatalf("procs=%d (step %d): U[%d] = %x, want %x", procs, i, k, res.U[k], refU[k])
			}
		}
	}
}

// TestSparseSolverWarmParallelSolveAllocFree pins the factorization
// workspace reuse: after the first solve, repeated parallel solves perform
// no allocation (FactorBandLUInto + cached Bandwidths + pooled kernels).
func TestSparseSolverWarmParallelSolveAllocFree(t *testing.T) {
	steady, u0 := plantedSteady(t, 8)
	opts := nonlin.NewtonOptions{Tol: 1e-12, MaxIter: 60, Procs: 4}
	solver := new(nonlin.SparseSolver)
	defer solver.Close()
	if _, err := solver.Solve(nil, steady, u0, opts); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := solver.Solve(nil, steady, u0, opts); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm parallel sparse solve allocates %v per call, want 0", allocs)
	}
}
