package core

import (
	"context"
	"fmt"
	"sync"

	"hybridpde/internal/analog"
	"hybridpde/internal/la"
	"hybridpde/internal/problem"
)

// Seeder produces the analog-quality warm start of the pipeline's first
// stage. Seed improves seed in place and accounts its analog cost in rep
// (AnalogUsed, AnalogSeconds, AnalogEnergyJ, and the decomposition counters
// when applicable). opts carries the already-defaulted solve options.
type Seeder interface {
	Seed(ctx context.Context, sys problem.SparseSystem, seed []float64, opts *Options, rep *Report) error
}

// NoSeed leaves the seed untouched: the pure-digital baseline.
var NoSeed Seeder = noSeed{}

type noSeed struct{}

func (noSeed) Seed(ctx context.Context, sys problem.SparseSystem, seed []float64, opts *Options, rep *Report) error {
	return nil
}

// directSeeder seeds with a single accelerator solve of the full system;
// it errors when the problem exceeds the accelerator's capacity.
type directSeeder struct{ acc *analog.Accelerator }

func (d *directSeeder) Seed(ctx context.Context, sys problem.SparseSystem, seed []float64, opts *Options, rep *Report) error {
	if dim := sys.Dim(); dim > d.acc.Capacity() {
		return fmt.Errorf("core: problem dimension %d exceeds accelerator capacity %d: %w", dim, d.acc.Capacity(), analog.ErrInsufficientHardware)
	}
	sol, err := d.acc.SolveSparse(ctx, sys, seed, opts.Analog)
	if err != nil {
		return err
	}
	rep.AnalogUsed = true
	rep.AnalogSeconds += sol.SettleSeconds
	rep.AnalogEnergyJ += sol.EnergyJoules
	copy(seed, sol.U)
	return nil
}

// DecomposedSeeder seeds an oversize problem by red-black nonlinear
// Gauss-Seidel over subdomain tiles (§6.3). The problem must implement
// problem.Decomposable. Same-colour tiles share no unknowns and no residual
// coupling, so each colour phase fans its tiles out over the given
// accelerator instances in parallel (one goroutine per accelerator; a
// physical deployment would be one chip per worker). Time and energy are
// accounted serially — per-tile settle times are summed in tile order, as
// the paper prices a single chip — so the report is bit-identical to a
// serial sweep.
func DecomposedSeeder(accels ...*analog.Accelerator) Seeder {
	return &decomposedSeeder{accels: accels}
}

// The red-black Gauss-Seidel outer loop runs at most gsMaxSweeps sweeps and
// stops once the full residual falls below gsTol·(1+‖F(w₀)‖): the seed only
// needs analog-level accuracy.
const (
	gsMaxSweeps = 8
	gsTol       = 0.08
)

type decomposedSeeder struct {
	accels []*analog.Accelerator
	// maxTileVars, when positive, caps tile size below the accelerator
	// capacity. The degradation ladder uses it to re-tile a problem whose
	// full-capacity analog solve misbehaved (FallbackSeeder).
	maxTileVars int
}

func (d *decomposedSeeder) Seed(ctx context.Context, sys problem.SparseSystem, seed []float64, opts *Options, rep *Report) error {
	if len(d.accels) == 0 {
		return fmt.Errorf("core: decomposed seeder has no accelerators")
	}
	dec, ok := sys.(problem.Decomposable)
	if !ok {
		return fmt.Errorf("core: problem type %T does not support red-black decomposition", sys)
	}
	capVars := d.accels[0].Capacity()
	for _, a := range d.accels[1:] {
		if c := a.Capacity(); c < capVars {
			capVars = c
		}
	}
	if d.maxTileVars > 0 && d.maxTileVars < capVars {
		capVars = d.maxTileVars
	}
	tiles, err := dec.Tiles(capVars)
	if err != nil {
		return err
	}
	rep.AnalogUsed = true
	rep.Decomposed = true
	rep.Subproblems = len(tiles)

	// One Sub per tile, built once and re-snapshotted per colour phase; the
	// shared mutex serialises the full system's Jacobian cache, which is the
	// only mutable state tiles share (Eval is read-only on the receiver).
	var jacMu sync.Mutex
	subs := make([]*problem.Sub, len(tiles))
	u0s := make([][]float64, len(tiles))
	outs := make([][]float64, len(tiles))
	settle := make([]float64, len(tiles))
	energy := make([]float64, len(tiles))
	for i, t := range tiles {
		subs[i] = problem.NewSub(sys, t.Unknowns, seed, &jacMu)
		u0s[i] = make([]float64, len(t.Unknowns))
		outs[i] = make([]float64, len(t.Unknowns))
	}

	f := make([]float64, sys.Dim())
	if err := sys.Eval(seed, f); err != nil {
		return err
	}
	target := gsTol * (1 + la.Norm2(f))

	workers := len(d.accels)
	for sweep := 0; sweep < gsMaxSweeps; sweep++ {
		rep.GSSweeps = sweep + 1
		for colour := 0; colour <= 1; colour++ { // red then black
			var phase []int
			for i, t := range tiles {
				if t.Colour == colour {
					phase = append(phase, i)
				}
			}
			// Freeze every tile of this colour at the current iterate. The
			// snapshot is taken before any tile of the phase scatters, but
			// same-colour tiles never appear in each other's stencils, so
			// the result matches a serial in-place sweep exactly.
			for _, ti := range phase {
				subs[ti].Reset(seed)
				subs[ti].Restrict(u0s[ti], seed)
			}
			errs := make([]error, workers)
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					acc := d.accels[w]
					// Static tile→worker partition: deterministic
					// assignment, no shared work queue to race on.
					for k := w; k < len(phase); k += workers {
						ti := phase[k]
						sol, err := acc.SolveSparse(ctx, subs[ti], u0s[ti], opts.Analog)
						if err != nil {
							errs[w] = fmt.Errorf("core: subdomain solve failed: %w", err)
							return
						}
						copy(outs[ti], sol.U)
						settle[ti] = sol.SettleSeconds
						energy[ti] = sol.EnergyJoules
					}
				}(w)
			}
			wg.Wait()
			for _, e := range errs {
				if e != nil {
					return e
				}
			}
			// Scatter and account in tile order, keeping both the iterate
			// and the floating-point accumulation deterministic.
			for _, ti := range phase {
				subs[ti].Scatter(outs[ti], seed)
				rep.AnalogSeconds += settle[ti]
				rep.AnalogEnergyJ += energy[ti]
			}
		}
		if err := sys.Eval(seed, f); err != nil {
			return err
		}
		if la.Norm2(f) <= target {
			return nil
		}
	}
	// Gauss-Seidel not fully converged is acceptable: the seed is only a
	// warm start; the digital polish handles the rest.
	return nil
}

// AnalogSeeder is the paper's pipeline policy: solve directly on the first
// accelerator when the problem fits its capacity, decompose across all
// given accelerators otherwise.
func AnalogSeeder(accels ...*analog.Accelerator) Seeder {
	return &analogSeeder{accels: accels}
}

type analogSeeder struct{ accels []*analog.Accelerator }

func (a *analogSeeder) Seed(ctx context.Context, sys problem.SparseSystem, seed []float64, opts *Options, rep *Report) error {
	if len(a.accels) == 0 {
		return fmt.Errorf("core: analog seeder has no accelerators")
	}
	if sys.Dim() <= a.accels[0].Capacity() {
		return (&directSeeder{acc: a.accels[0]}).Seed(ctx, sys, seed, opts, rep)
	}
	return (&decomposedSeeder{accels: a.accels}).Seed(ctx, sys, seed, opts, rep)
}

// FallbackSeeder derives the decomposed-seed rung of the degradation ladder
// from a configured seeder: the same accelerators, forced through red-black
// decomposition with tiles capped at roughly half the problem, so a direct
// analog solve that misbehaved (a localised fault, a saturated region) is
// retried as smaller subdomain solves whose errors the Gauss-Seidel sweeps
// can contain. Returns nil when the seeder has no distinct decomposed form
// (already decomposed, no accelerators, or not an analog seeder at all).
func FallbackSeeder(s Seeder, dim int) Seeder {
	maxVars := (dim + 1) / 2
	if maxVars < 1 {
		maxVars = 1
	}
	switch t := s.(type) {
	case *analogSeeder:
		if len(t.accels) == 0 {
			return nil
		}
		return &decomposedSeeder{accels: t.accels, maxTileVars: maxVars}
	case *directSeeder:
		return &decomposedSeeder{accels: []*analog.Accelerator{t.acc}, maxTileVars: maxVars}
	}
	return nil
}
