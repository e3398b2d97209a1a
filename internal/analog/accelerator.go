package analog

import (
	"context"
	"errors"
	"fmt"

	"hybridpde/internal/la"
	"hybridpde/internal/nonlin"
	"hybridpde/internal/ode"
)

// TimeConstantSeconds converts the dimensionless integration time of the
// continuous-Newton ODE into wall-clock seconds. It is the single timing
// normalisation the paper performs: "the predicted solution time of the 2×2
// analog accelerator is normalized to match the measured solution time of
// the physical analog accelerator" (§6.1). With settle times of ≈20 time
// constants this puts the prototype's solves at the ~2×10⁻⁵ s the measured
// points of Figure 7 show.
const TimeConstantSeconds = 1e-6

// QuotientLoopEpsilon is the finite-gain regularisation of the continuous
// gradient-descent quotient loop (the shaded block of Figure 1, explored in
// the group's linear-algebra papers). The hardware loop computes
// δ ≈ J⁻¹F by descending ‖Jδ − F‖²; with finite loop gain the fixed point
// is δ = (JᵀJ + εI)⁻¹JᵀF. The regularisation keeps the dynamics defined
// across singular Jacobians (homotopy folds) without moving any true root:
// δ = 0 ⟺ JᵀF = 0.
const QuotientLoopEpsilon = 1e-3

// settleDerivTol declares steady state when ‖dw/dt‖ drops below it
// (normalised units per τ). The analog board detects settling at the
// resolution of its ADCs, so it is coarse.
const settleDerivTol = 1e-4

// SolveOptions configures one accelerator run.
type SolveOptions struct {
	// DynamicRange is the bound s on |u| used to scale the problem into
	// hardware range (§5.3). Default 1.
	DynamicRange float64
	// TMaxTau bounds the settle horizon in integrator time constants.
	// Default 200.
	TMaxTau float64
	// MaxSteps bounds the simulation cost: the number of accepted
	// integrator steps spent emulating the circuit. A run that exhausts
	// the budget is reported as not converged (the physical chip would
	// simply still be slewing when the host's deadline passes).
	// Convergent trajectories settle within a few hundred steps; the
	// default of 800 leaves generous headroom while keeping chattering
	// (non-convergent) trajectories from burning minutes of simulation.
	MaxSteps int
	// DisableNoise turns off every hardware non-ideality; used by tests to
	// separate algorithmic behaviour from noise effects, and equivalent to
	// a hypothetical perfect chip.
	DisableNoise bool
}

func (o *SolveOptions) defaults() {
	if o.DynamicRange <= 0 {
		o.DynamicRange = 1
	}
	if o.TMaxTau <= 0 {
		o.TMaxTau = 200
	}
	if o.MaxSteps <= 0 {
		o.MaxSteps = 800
	}
}

// Solution is the result of an analog solve.
type Solution struct {
	// U is the readout in problem coordinates (ADC-quantised).
	U []float64
	// W is the normalised hardware state before rescaling.
	W []float64
	// Converged reports whether the circuit settled before TMaxTau.
	Converged bool
	// SettleTau is the settle time in integrator time constants.
	SettleTau float64
	// SettleSeconds is SettleTau converted by TimeConstantSeconds.
	SettleSeconds float64
	// EnergyJoules charges peak board power for the settle duration — an
	// upper bound, since activity decays as the circuit converges.
	EnergyJoules float64
	// Residual is ‖F(U)‖₂ of the original (unscaled) system at readout.
	Residual float64
}

// Accelerator couples a Fabric with the solve pipeline: scaling,
// allocation, continuous-time evolution, and readout.
type Accelerator struct {
	Fabric *Fabric
	// inj, when non-nil, injects faults beyond the calibrated envelope
	// (see Injector). Healthy accelerators leave it nil.
	inj Injector
}

// NewAccelerator builds a calibrated accelerator with the given config.
func NewAccelerator(cfg Config) *Accelerator {
	f := NewFabric(cfg)
	f.Calibrate()
	return &Accelerator{Fabric: f}
}

// NewPrototype returns the model of the physical two-chip board (capacity:
// 8 scalar variables = one 2×2 Burgers grid).
func NewPrototype(seed int64) *Accelerator {
	return NewAccelerator(Config{Seed: seed})
}

// NewScaled returns the model of a scaled-up accelerator able to solve an
// n×n 2-D Burgers problem directly (Table 4). It errs beyond the paper's
// 16×16 practicality limit.
func NewScaled(gridN int, seed int64) (*Accelerator, error) {
	if gridN < 1 || gridN > MaxPracticalGrid {
		return nil, fmt.Errorf("analog: grid %d×%d outside practical range 1..%d (Table 4)", gridN, gridN, MaxPracticalGrid)
	}
	vars := VariablesForGrid(gridN)
	chips := (vars + PrototypeChip.Tiles - 1) / PrototypeChip.Tiles
	return NewAccelerator(Config{Chips: chips, Seed: seed}), nil
}

// Capacity reports the number of scalar variables the accelerator hosts,
// net of any tiles an attached fault injector has marked dead.
func (a *Accelerator) Capacity() int { return a.usableCapacity() }

// PeakPowerWatts returns the board's peak power for a given active variable
// count, from the Table 4 per-variable model.
func (a *Accelerator) PeakPowerWatts(vars int) float64 {
	return PowerPerVariableMW * float64(vars) * 1e-3
}

// AreaMM2 returns total board silicon area.
func (a *Accelerator) AreaMM2() float64 {
	return AreaPerVariableMM2 * float64(a.Capacity())
}

// quotientLoop is the finite-gain gradient-descent loop of Figure 1's
// shaded block. Given the saturated state w at circuit time t it writes
// δ = (JᵀJ + εI)⁻¹·Jᵀg into delta, with g and J the mode's scaled residual
// and Jacobian as the datapath computes them: through the function and
// Jacobian gain and offset errors of cells, or exactly when cells is nil
// (an ideal run). bandedLoop is the one kernel; it owns its matrices and
// its factorisation, and nothing else of the run.
type quotientLoop func(t float64, w []float64, cells []*NewtonCell, delta []float64) error

// fabricMode is everything one root-finding mode (SolveSparse or
// SolveHomotopy) adds to the shared run.
type fabricMode struct {
	loop quotientLoop
	// start and evolution name the mode's input and its circuit in errors.
	start, evolution string
	// minHold and minTime gate settle detection (ode.SteadyStateOptions);
	// only the homotopy sets them, to wait out its λ ramp.
	minHold int
	minTime float64
}

// run is the one pass through the board every root-finding mode makes:
// allocate cells, load the DACs, let the continuous Newton circuit settle,
// read the ADCs. ss carries the system in hardware range; ctx may be nil.
func (a *Accelerator) run(ctx context.Context, ss *scaledSystem, u0 []float64, opts SolveOptions, m fabricMode) (Solution, error) {
	opts.defaults()
	n := ss.Dim()
	if len(u0) != n {
		return Solution{}, fmt.Errorf("analog: %s has wrong dimension", m.start)
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
	noisy := !opts.DisableNoise
	if !noisy {
		cells = nil
	}

	// DAC-quantised initial conditions in normalised units.
	w0 := make([]float64, n)
	for i, v := range u0 {
		w0[i] = quantize(clamp(a.dacIn(i, v/ss.s), 1), a.Fabric.Config.DACBits)
	}

	// The ODE the board physically evolves: the continuous Newton flow of
	// the scaled system, filtered through the cells' gain and offset
	// errors, the finite-gain quotient loop, slew limiting and saturation.
	wsat := make([]float64, n)
	sat := a.satLimit()
	slew := a.Fabric.Config.SlewLimit
	flow := func(t float64, w, dwdt []float64) error {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("analog: solve aborted: %w", err)
			}
		}
		// The datapath sees the saturated state; the integrator's own
		// state is left untouched.
		for i := range w {
			wsat[i] = clamp(w[i], sat)
		}
		if err := m.loop(t, wsat, cells, dwdt); err != nil {
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
		MinHold:  m.minHold,
		MinTime:  m.minTime,
		Adaptive: ode.AdaptiveOptions{AbsTol: 1e-6, RelTol: 1e-5, MaxSteps: opts.MaxSteps, MaxEvals: 6 * opts.MaxSteps},
	})
	if errors.Is(err, ode.ErrTooManySteps) {
		// Budget exhausted without settling: report the state as a
		// non-converged measurement, like a chip read out before settling.
		err = nil
		sr.Settled = false
	}
	if err != nil {
		return Solution{}, fmt.Errorf("analog: %s evolution failed: %w", m.evolution, err)
	}

	sol := Solution{W: la.Copy(sr.Y)}
	// ADC readout with quantisation.
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
	if err := ss.sys.Eval(sol.U, f); err != nil {
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

// homotopyBlend is the chip's homotopy mode (§3.2, Figure 3): the
// programmed system G(w, λ(t)) = (1−λ)S(w) + λH(w), with λ ramping from 0 to
// 1 over homotopyRampTau time constants, and its Jacobian
// (1−λ)J_S + λJ_H assembled on the union of the two patterns.
type homotopyBlend struct {
	simple, hard *scaledSystem
	fs           []float64
	jac          *la.CSR // the union of the two patterns, built once per run
}

// newHomotopyBlend builds the union pattern from one Jacobian evaluation of
// each system at w; both patterns must stay fixed along the run.
func newHomotopyBlend(simple, hard *scaledSystem, w []float64) (*homotopyBlend, error) {
	n := hard.Dim()
	union := la.NewCOO(n, n)
	for _, ss := range []*scaledSystem{simple, hard} {
		j, err := ss.JacobianCSR(w)
		if err != nil {
			return nil, err
		}
		for i := 0; i < n; i++ {
			cols, _ := j.RowNNZ(i)
			for _, c := range cols {
				union.Append(i, c, 0)
			}
		}
	}
	return &homotopyBlend{simple: simple, hard: hard, fs: make([]float64, n), jac: union.ToCSR()}, nil
}

func (b *homotopyBlend) lambda(t float64) float64 {
	if t >= homotopyRampTau {
		return 1
	}
	return t / homotopyRampTau
}

// linearize writes G(w, λ(t)) into g and returns its Jacobian. A slot that
// one system does not store takes an exact +0 from it, so at λ = 0 and
// λ = 1 the blend reproduces J_S and J_H bit for bit.
func (b *homotopyBlend) linearize(t float64, w, g []float64) (*la.CSR, error) {
	l := b.lambda(t)
	if err := b.simple.Eval(w, b.fs); err != nil {
		return nil, err
	}
	if err := b.hard.Eval(w, g); err != nil {
		return nil, err
	}
	for i := range g {
		g[i] = float64((1-l)*b.fs[i]) + float64(l*g[i])
	}
	b.jac.ZeroValues()
	for _, part := range [...]struct {
		sys   *scaledSystem
		scale float64
	}{{b.simple, 1 - l}, {b.hard, l}} {
		j, err := part.sys.JacobianCSR(w)
		if err != nil {
			return nil, err
		}
		for i := 0; i < j.Rows(); i++ {
			cols, vals := j.RowNNZ(i)
			for k, c := range cols {
				b.jac.AddSlotValue(b.jac.Slot(i, c), float64(part.scale*vals[k]))
			}
		}
	}
	return b.jac, nil
}

// HomotopyOptions configures SolveHomotopy.
type HomotopyOptions struct {
	Solve SolveOptions
}

// homotopyRampTau is the λ ramp duration in time constants.
const homotopyRampTau = 50.0

// SolveHomotopy runs the chip's homotopy-continuation mode: the state
// starts at a root of the simple system and the fabric smoothly morphs the
// programmed equations from simple to hard while the Newton dynamics keep
// the state on a root (§3.2). Unlike digital path tracking, folds need no
// special casing — the slew-limited dynamics slide into another basin, so
// "all choices of initial conditions lead to one correct solution or
// another" (Figure 3). Both systems are range-scaled with the same
// DynamicRange, each by its own degree.
func (a *Accelerator) SolveHomotopy(simple, hard nonlin.SparseSystem, start []float64, opts HomotopyOptions) (Solution, error) {
	if opts.Solve.MaxSteps <= 0 {
		// The λ ramp keeps the state off equilibrium for its whole
		// duration, so homotopy runs need a larger step budget than
		// plain solves.
		opts.Solve.MaxSteps = 6000
	}
	opts.Solve.defaults()
	if opts.Solve.TMaxTau <= homotopyRampTau {
		opts.Solve.TMaxTau = homotopyRampTau * 4
	}
	if simple.Dim() != hard.Dim() {
		return Solution{}, fmt.Errorf("analog: homotopy dimension mismatch %d vs %d", simple.Dim(), hard.Dim())
	}
	ssS, err := newScaledSparse(simple, opts.Solve.DynamicRange)
	if err != nil {
		return Solution{}, err
	}
	ssH, err := newScaledSparse(hard, opts.Solve.DynamicRange)
	if err != nil {
		return Solution{}, err
	}
	n := hard.Dim()
	blend, err := newHomotopyBlend(ssS, ssH, make([]float64, n))
	if err != nil {
		return Solution{}, err
	}
	// The state is intentionally away from equilibrium during the ramp, so
	// only check for settling after λ reaches 1.
	sol, err := a.run(nil, ssH, start, opts.Solve, fabricMode{
		loop:  bandedLoop(n, blend.linearize),
		start: "homotopy start", evolution: "homotopy",
		minHold: 5, minTime: homotopyRampTau,
	})
	if err != nil {
		return sol, err
	}
	// A settle during the ramp at λ<1 does not count as convergence.
	if sol.SettleTau < homotopyRampTau {
		sol.SettleTau = homotopyRampTau
		sol.SettleSeconds = sol.SettleTau * TimeConstantSeconds
	}
	return sol, nil
}
