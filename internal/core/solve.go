// Package core implements the paper's primary contribution: the hybrid
// analog-digital solution of nonlinear PDEs. The digital host discretises
// the PDE (internal/pde), an analog accelerator model produces a fast
// approximate solution with the continuous Newton method (internal/analog),
// and that approximation seeds a high-precision digital Newton solve which
// then starts inside its quadratic-convergence region (§3.3, §6.2).
//
// The pipeline is generic over problem.SparseSystem: Solve accepts any
// sparse nonlinear system, the Seeder interface makes the analog stage
// pluggable (direct, red-black decomposed, or absent), and the PerfBackend
// interface makes the digital cost model pluggable. Problems larger than
// the accelerator's capacity are decomposed with red-black nonlinear
// Gauss-Seidel (§6.3): the grid is split into subdomain tiles, tiles of one
// colour are relaxed concurrently while their neighbours are frozen, and an
// accelerator solves each tile's restricted nonlinear system.
package core

import (
	"context"
	"errors"
	"fmt"
	"math"

	"hybridpde/internal/analog"
	"hybridpde/internal/la"
	"hybridpde/internal/nonlin"
	"hybridpde/internal/problem"
)

// Options configures a hybrid solve.
type Options struct {
	// Newton tunes the digital polish stage. Tol defaults to 1e-12
	// (≈ double-precision epsilon scale for O(1) fields, the paper's
	// "smallest value representable" stop).
	Newton nonlin.NewtonOptions
	// Analog tunes the accelerator stage.
	Analog analog.SolveOptions
	// Seeder produces the analog-quality warm start. Use AnalogSeeder for
	// the paper's pipeline (direct when the problem fits the accelerator,
	// red-black decomposed otherwise), or NoSeed / SkipAnalog for the
	// pure-digital baseline.
	Seeder Seeder
	// Perf selects the digital cost model. Default PerfCPU.
	Perf PerfBackend
	// SkipAnalog disables seeding regardless of Seeder (pure digital
	// baseline) — the ablation switch used throughout the evaluation.
	SkipAnalog bool
	// SeedGate, when positive, enables residual-based seed-quality gating:
	// the analog seed is kept only when ‖F(seed)‖ ≤ SeedGate·‖F(start)‖
	// (NaN or Inf residuals always fail). A rejected seed is discarded and
	// the digital polish runs from the original start instead, with
	// Report.SeedRejected set. 1 accepts any seed that does not make the
	// start worse; the default 0 disables gating (every seed is used).
	SeedGate float64
	// DisableAutoDamp keeps the caller's Newton damping settings instead of
	// forcing the paper's auto-damping schedule on the polish stage. By
	// default Solve enables AutoDamp (the evaluation protocol); damping
	// ablations set this to run with a fixed explicit Damping.
	DisableAutoDamp bool
	// InitialGuess overrides the default warm start (the problem's
	// InitialGuess). The evaluation uses random cold starts here, per §6.1.
	InitialGuess []float64
	// Workspace, when set, reuses buffers across repeated Solve calls of
	// same-shaped problems (time stepping). Report.U then aliases workspace
	// storage and is only valid until the next call.
	Workspace *Workspace
	// Procs bounds the per-solve worker count of the digital polish's
	// parallel kernels (Jacobian assembly, residual walks, band-LU trailing
	// updates). 0 and 1 run serial; results are bit-identical at every
	// setting. It fills Newton.Procs when that is unset, and flows through
	// the degradation ladder to every rung's digital stage.
	Procs int
}

func (o *Options) defaults() {
	if o.Newton.Tol <= 0 {
		o.Newton.Tol = 1e-12
	}
	if o.Newton.MaxIter <= 0 {
		o.Newton.MaxIter = 400
	}
	if !o.DisableAutoDamp {
		o.Newton.AutoDamp = true
	}
	if o.Perf == nil {
		o.Perf = PerfCPU
	}
	if o.Newton.Procs == 0 {
		o.Newton.Procs = o.Procs
	}
}

// Report is the full account of a hybrid solve.
type Report struct {
	U []float64
	// Analog stage.
	AnalogUsed    bool
	AnalogSeconds float64
	AnalogEnergyJ float64
	SeedResidual  float64 // ‖F(seed)‖₂
	// Seed-quality gate (only when Options.SeedGate > 0).
	StartResidual float64 // ‖F(start)‖₂ before seeding
	SeedRejected  bool    // seed failed the gate; polish ran from start
	// Decomposition stage (only for oversize problems).
	Decomposed  bool
	Subproblems int
	GSSweeps    int
	// Digital polish stage.
	Digital        nonlin.Result
	DigitalSeconds float64
	DigitalEnergyJ float64
	FinalResidual  float64
	// Totals.
	TotalSeconds float64
	TotalEnergyJ float64
	// Fallback is the degradation-ladder account when the solve ran through
	// Ladder.Solve; plain Solve leaves it nil. It aliases ladder-owned
	// storage and is only valid until the ladder's next call.
	Fallback *FallbackReport
}

// Workspace carries the reusable buffers of repeated Solve calls: the
// sparse-Newton factorization workspace plus seed and residual vectors.
// A Workspace must not be shared between concurrent Solve calls.
type Workspace struct {
	// Solver is the reusable sparse Newton workspace; callers running bare
	// Newton loops (no analog stage) may use it directly.
	Solver nonlin.SparseSolver

	seed, f, start []float64
	// rep and opts are per-call scratch: Seeder.Seed takes them by pointer,
	// so stack locals would escape and cost two heap allocations per Solve.
	rep  Report
	opts Options
}

// NewWorkspace returns an empty workspace; buffers grow on first use.
func NewWorkspace() *Workspace { return &Workspace{} }

func (w *Workspace) ensure(dim int) {
	if len(w.seed) != dim {
		w.seed = make([]float64, dim)
		w.f = make([]float64, dim)
		w.start = make([]float64, dim)
	}
}

// Solve runs the hybrid pipeline on any sparse nonlinear system: the
// configured Seeder produces an analog-quality warm start, then the digital
// Newton polish drives the residual to opts.Newton.Tol, and the configured
// PerfBackend prices the digital work.
//
// ctx may be nil; a cancelled context aborts both stages with an error
// wrapping the context's error (test with errors.Is(err, context.Canceled)).
//
// The function is on the repeated-stepping hot path (the Workspace time
// loop): with a warm workspace it must stay at 0 allocs/op, which
// `make bench` checks dynamically and the noalloc rule checks structurally.
//
//pdevet:noalloc
func Solve(ctx context.Context, sys problem.SparseSystem, opts Options) (Report, error) {
	opts.defaults()
	dim := sys.Dim()
	ws := opts.Workspace
	if ws == nil {
		ws = NewWorkspace()
	}
	ws.ensure(dim)
	ws.rep = Report{}
	seed := ws.seed
	if opts.InitialGuess != nil {
		if len(opts.InitialGuess) != dim {
			return ws.rep, errors.New("core: initial guess has wrong dimension")
		}
		copy(seed, opts.InitialGuess)
	} else if g, ok := sys.(problem.WarmStarter); ok {
		g.InitialGuessInto(seed)
	} else {
		copy(seed, sys.InitialGuess())
	}

	seeder := opts.Seeder
	if opts.SkipAnalog || seeder == nil {
		seeder = NoSeed
	}
	if _, skip := seeder.(noSeed); !skip {
		if opts.Analog.DynamicRange <= 0 {
			// Quadratic stencils keep the solution within the range of
			// the fields and constants; leave headroom for transients.
			opts.Analog.DynamicRange = math.Max(1, 1.5*sys.MaxField())
		}
		gated := opts.SeedGate > 0
		if gated {
			copy(ws.start, seed)
			if err := sys.Eval(seed, ws.f); err != nil {
				return ws.rep, err
			}
			ws.rep.StartResidual = la.Norm2(ws.f)
		}
		ws.opts = opts
		if err := seeder.Seed(ctx, sys, seed, &ws.opts, &ws.rep); err != nil {
			return ws.rep, fmt.Errorf("core: analog stage failed: %w", err) //pdevet:allow noalloc error path
		}
		if err := sys.Eval(seed, ws.f); err != nil {
			return ws.rep, err
		}
		ws.rep.SeedResidual = la.Norm2(ws.f)
		// Seed-quality gate: a seed that fails (or a non-finite residual,
		// which fails every comparison) is discarded, and the polish runs
		// from the pristine start.
		if gated && !(ws.rep.SeedResidual <= opts.SeedGate*ws.rep.StartResidual) {
			copy(seed, ws.start)
			ws.rep.SeedRejected = true
		}
	}

	res, err := ws.Solver.Solve(ctx, sys, seed, opts.Newton)
	rep := ws.rep
	rep.Digital = res
	rep.U = res.U
	rep.FinalResidual = res.Residual
	rep.DigitalSeconds = opts.Perf.Time(res, dim)
	rep.DigitalEnergyJ = opts.Perf.Energy(res, dim)
	rep.TotalSeconds = rep.AnalogSeconds + rep.DigitalSeconds
	rep.TotalEnergyJ = rep.AnalogEnergyJ + rep.DigitalEnergyJ
	if err != nil {
		return rep, fmt.Errorf("core: digital polish failed: %w", err) //pdevet:allow noalloc error path
	}
	return rep, nil
}
