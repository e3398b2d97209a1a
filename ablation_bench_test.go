// Ablation benchmarks for the design choices DESIGN.md §7 calls out: the
// damping schedule, the analog seed, converter resolution and stencil
// order. Each reports the quantity the ablation is about as a custom metric.
package main

import (
	"math/rand"
	"testing"

	"hybridpde/internal/analog"
	"hybridpde/internal/core"
	"hybridpde/internal/nonlin"
	"hybridpde/internal/pde"
	"hybridpde/internal/stats"
)

// ablationProblem builds a moderately hard planted-root Burgers step.
func ablationProblem(b *testing.B, n int, re, bound float64, seed int64) (*pde.Burgers, []float64, []float64) {
	b.Helper()
	rng := rand.New(rand.NewSource(seed))
	prob, err := pde.RandomBurgers(n, re, bound, rng)
	if err != nil {
		b.Fatal(err)
	}
	root := make([]float64, prob.Dim())
	for i := range root {
		root[i] = bound * (2*rng.Float64() - 1)
	}
	if err := prob.SetRHSForRoot(root); err != nil {
		b.Fatal(err)
	}
	u0 := make([]float64, prob.Dim())
	for i := range u0 {
		u0[i] = bound * (2*rng.Float64() - 1)
	}
	return prob, root, u0
}

// BenchmarkAblationDampingSchedule compares the paper's halve-on-failure
// schedule with an Armijo line search on a problem where classical Newton
// (h = 1) fails outright.
func BenchmarkAblationDampingSchedule(b *testing.B) {
	var autoIters, armijoIters int
	for i := 0; i < b.N; i++ {
		prob, _, u0 := ablationProblem(b, 8, 2.0, 2.4, 77)
		res, err := nonlin.NewtonSparse(nil, prob, u0, nonlin.NewtonOptions{Tol: 1e-9, RelTol: 1e-13, AutoDamp: true, MaxIter: 400})
		if err == nil {
			autoIters = res.TotalIters
		}
		dres, err := nonlin.NewtonArmijo(nil, nonlin.DenseAdapter{S: prob}, u0, nonlin.NewtonOptions{Tol: 1e-9, RelTol: 1e-13, MaxIter: 400})
		if err == nil {
			armijoIters = dres.Iterations
		}
	}
	b.ReportMetric(float64(autoIters), "autodamp-total-iters")
	b.ReportMetric(float64(armijoIters), "armijo-iters")
}

// BenchmarkAblationSeeding measures the counted digital iterations with and
// without the analog seed — the mechanism behind Figures 8 and 9.
func BenchmarkAblationSeeding(b *testing.B) {
	acc, err := analog.NewScaled(8, 1)
	if err != nil {
		b.Fatal(err)
	}
	seeder := core.AnalogSeeder(acc)
	var cold, seeded int
	for i := 0; i < b.N; i++ {
		prob, _, u0 := ablationProblem(b, 8, 2.0, 2.1, 78)
		opts := core.Options{InitialGuess: u0, Seeder: seeder}
		opts.Analog.DynamicRange = 1.5 * 2.1
		if rep, err := core.Solve(nil, prob, opts); err == nil {
			seeded = rep.Digital.Iterations
		}
		optsCold := opts
		optsCold.SkipAnalog = true
		if rep, err := core.Solve(nil, prob, optsCold); err == nil {
			cold = rep.Digital.Iterations
		}
	}
	b.ReportMetric(float64(cold), "cold-iters")
	b.ReportMetric(float64(seeded), "seeded-iters")
}

// BenchmarkAblationADCBits sweeps converter resolution: solution error
// should degrade as bits shrink, flattening once component mismatch
// dominates (~8 bits, the prototype's choice).
func BenchmarkAblationADCBits(b *testing.B) {
	for _, bits := range []int{4, 6, 8, 12} {
		b.Run(map[int]string{4: "4bit", 6: "6bit", 8: "8bit", 12: "12bit"}[bits], func(b *testing.B) {
			var rms float64
			for i := 0; i < b.N; i++ {
				acc := analog.NewAccelerator(analog.Config{Seed: 5, ADCBits: bits, DACBits: bits})
				rng := rand.New(rand.NewSource(79))
				var perTrial []float64
				for t := 0; t < 10; t++ {
					prob, err := pde.RandomBurgers(2, 1.0, 3.0, rng)
					if err != nil {
						b.Fatal(err)
					}
					root := make([]float64, prob.Dim())
					for k := range root {
						root[k] = 3 * (2*rng.Float64() - 1)
					}
					if err := prob.SetRHSForRoot(root); err != nil {
						b.Fatal(err)
					}
					sol, err := acc.SolveSparse(nil, prob, root, analog.SolveOptions{DynamicRange: 4.5})
					if err != nil || !sol.Converged {
						continue
					}
					golden, err := core.GoldenSolve(nil, prob, sol.U)
					if err != nil {
						continue
					}
					perTrial = append(perTrial, 100*stats.RMSError(sol.U, golden, 4.5))
				}
				rms = stats.TotalRMS(perTrial)
			}
			b.ReportMetric(rms, "RMS-%")
		})
	}
}

// BenchmarkAblationStencilOrder compares the order-2 and order-4 stencils:
// the wider stencil increases Jacobian bandwidth (a larger accelerator, §7)
// without changing Newton behaviour on these smooth problems.
func BenchmarkAblationStencilOrder(b *testing.B) {
	var nnz2, nnz4 float64
	var it2, it4 int
	for i := 0; i < b.N; i++ {
		for _, order := range []int{2, 4} {
			prob, _, u0 := ablationProblem(b, 8, 0.5, 1.5, 80)
			prob.Order = order
			j, err := prob.JacobianCSR(u0)
			if err != nil {
				b.Fatal(err)
			}
			res, err := nonlin.NewtonSparse(nil, prob, u0, nonlin.NewtonOptions{Tol: 1e-9, RelTol: 1e-13, AutoDamp: true, MaxIter: 300})
			if err != nil {
				continue
			}
			if order == 2 {
				nnz2, it2 = float64(j.NNZ()), res.Iterations
			} else {
				nnz4, it4 = float64(j.NNZ()), res.Iterations
			}
		}
	}
	b.ReportMetric(nnz2, "order2-nnz")
	b.ReportMetric(nnz4, "order4-nnz")
	b.ReportMetric(float64(it2), "order2-iters")
	b.ReportMetric(float64(it4), "order4-iters")
}
