package exp

import (
	"context"
	"fmt"
	"math/rand"
	"strings"

	"hybridpde/internal/analog"
	"hybridpde/internal/core"
	"hybridpde/internal/nonlin"
	"hybridpde/internal/pde"
	"hybridpde/internal/stats"
)

// AblationResult collects the design-choice ablations DESIGN.md §7 calls
// out: what each ingredient of the hybrid pipeline buys.
type AblationResult struct {
	// Damping schedule on a hard cold-start problem.
	ClassicalFails   bool
	AutoDampIters    int
	AutoDampTotal    int
	ArmijoIters      int
	TrustRegionIters int
	// Seeding effect (counted digital iterations).
	ColdIters   int
	SeededIters int
	// Converter resolution sweep: total RMS % per ADC/DAC bit width.
	BitsRMS map[int]float64
	// Stencil order: Jacobian nonzeros (accelerator size proxy).
	Order2NNZ, Order4NNZ int
}

// Ablations runs the ablation suite at the configured scale.
func Ablations(ctx context.Context, cfg Config) (AblationResult, error) {
	var out AblationResult
	out.BitsRMS = map[int]float64{}
	n := pick(cfg, 8, 4)
	const re, bound = 2.0, 2.2

	newProblem := func(salt int64) (*pde.Burgers, []float64, error) {
		rng := cfg.rng(salt)
		b, err := pde.RandomBurgers(n, re, bound, rng)
		if err != nil {
			return nil, nil, err
		}
		root := make([]float64, b.Dim())
		for i := range root {
			root[i] = bound * (2*rng.Float64() - 1)
		}
		if err := b.SetRHSForRoot(root); err != nil {
			return nil, nil, err
		}
		u0 := make([]float64, b.Dim())
		for i := range u0 {
			u0[i] = bound * (2*rng.Float64() - 1)
		}
		return b, u0, nil
	}

	// 1. Damping schedules.
	b, u0, err := newProblem(41)
	if err != nil {
		return out, err
	}
	var ns nonlin.SparseSolver
	if _, err := ns.Solve(ctx, b, u0, nonlin.NewtonOptions{Tol: 1e-9, RelTol: 1e-13, MaxIter: 150}); err != nil {
		out.ClassicalFails = true
	}
	if r, err := ns.Solve(ctx, b, u0, nonlin.NewtonOptions{Tol: 1e-9, RelTol: 1e-13, AutoDamp: true, MaxIter: 400}); err == nil {
		out.AutoDampIters = r.Iterations
		out.AutoDampTotal = r.TotalIters
	}
	if r, err := NewtonArmijo(ctx, b, u0, nonlin.NewtonOptions{Tol: 1e-9, RelTol: 1e-13, MaxIter: 400}); err == nil {
		out.ArmijoIters = r.Iterations
	}
	if r, err := trustRegion(b, u0, 1e-7, 500); err == nil {
		out.TrustRegionIters = r.Iterations
	}

	// 2. Seeding.
	acc, err := analog.NewScaled(n, cfg.Seed)
	if err != nil {
		return out, err
	}
	b2, u02, err := newProblem(42)
	if err != nil {
		return out, err
	}
	opts := core.Options{InitialGuess: u02, Seeder: core.AnalogSeeder(acc)}
	opts.Analog.DynamicRange = 1.5 * bound
	if rep, err := core.Solve(ctx, b2, opts); err == nil {
		out.SeededIters = rep.Digital.Iterations
	}
	optsCold := opts
	optsCold.SkipAnalog = true
	if rep, err := core.Solve(ctx, b2, optsCold); err == nil {
		out.ColdIters = rep.Digital.Iterations
	}

	// 3. Converter resolution sweep on 2×2 problems.
	trials := pick(cfg, 12, 5)
	for _, bits := range []int{4, 6, 8, 12} {
		accB := analog.NewAccelerator(analog.Config{Seed: cfg.Seed, ADCBits: bits, DACBits: bits})
		rng := rand.New(rand.NewSource(cfg.Seed + 43))
		var perTrial []float64
		for t := 0; t < trials; t++ {
			p, err := pde.RandomBurgers(2, 1.0, 3.0, rng)
			if err != nil {
				return out, err
			}
			root := make([]float64, p.Dim())
			for k := range root {
				root[k] = 3 * (2*rng.Float64() - 1)
			}
			if err := p.SetRHSForRoot(root); err != nil {
				return out, err
			}
			sol, err := accB.SolveSparse(ctx, p, root, analog.SolveOptions{DynamicRange: 4.5})
			if err != nil || !sol.Converged {
				continue
			}
			golden, err := core.GoldenSolve(ctx, p, sol.U)
			if err != nil {
				continue
			}
			perTrial = append(perTrial, 100*stats.RMSError(sol.U, golden, 4.5))
		}
		out.BitsRMS[bits] = stats.TotalRMS(perTrial)
	}

	// 4. Stencil order vs accelerator size. The wide stencil only engages
	// on nodes two cells from the boundary, so this part uses a fixed 8×8
	// grid even in quick mode (it is a single Jacobian assembly).
	for _, order := range []int{2, 4} {
		rng := cfg.rng(44)
		bo, err := pde.RandomBurgers(8, re, bound, rng)
		if err != nil {
			return out, err
		}
		bo.Order = order
		j, err := bo.JacobianCSR(bo.InitialGuess())
		if err != nil {
			return out, err
		}
		if order == 2 {
			out.Order2NNZ = j.NNZ()
		} else {
			out.Order4NNZ = j.NNZ()
		}
	}
	return out, nil
}

// String renders the ablation report.
func (r AblationResult) String() string {
	var b strings.Builder
	b.WriteString(header("Ablations: what each design ingredient buys"))
	fmt.Fprintf(&b, "damping schedules on a hard cold start (Re 2.0):\n")
	fmt.Fprintf(&b, "  classical Newton (h = 1):      fails = %v\n", r.ClassicalFails)
	fmt.Fprintf(&b, "  paper's halving schedule:      %d counted iters (%d total with trials)\n", r.AutoDampIters, r.AutoDampTotal)
	fmt.Fprintf(&b, "  Armijo line search:            %d iters\n", r.ArmijoIters)
	fmt.Fprintf(&b, "  dogleg trust region:           %d iters\n", r.TrustRegionIters)
	fmt.Fprintf(&b, "analog seeding (counted digital iterations):\n")
	fmt.Fprintf(&b, "  cold start: %d    seeded: %d\n", r.ColdIters, r.SeededIters)
	fmt.Fprintf(&b, "converter resolution vs solution error (total RMS %% of range):\n")
	for _, bits := range []int{4, 6, 8, 12} {
		fmt.Fprintf(&b, "  %2d-bit: %.2f%%\n", bits, r.BitsRMS[bits])
	}
	fmt.Fprintf(&b, "stencil order vs accelerator size (Jacobian nonzeros):\n")
	fmt.Fprintf(&b, "  order 2: %d    order 4: %d (larger stencil ⇒ larger accelerator, §7)\n",
		r.Order2NNZ, r.Order4NNZ)
	return b.String()
}
