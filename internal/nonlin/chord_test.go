// External test package: the chord-mode fixtures are real transient PDE
// systems from internal/pde, which itself imports nonlin.
package nonlin_test

import (
	"math/rand"
	"testing"

	"hybridpde/internal/nonlin"
	"hybridpde/internal/pde"
)

// transientBurgers builds a 2-D Crank–Nicolson Burgers system with random
// fields — the implicit time-stepping fixture chord mode exists for.
func transientBurgers(t testing.TB, n int, seed int64) *pde.Burgers {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b, err := pde.RandomBurgers(n, 0.8, 0.5, rng)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// stepFrame records one time step's solve for bit-level comparison.
type stepFrame struct {
	iters, linSolves, refactors int
	residual                    float64
	u                           []float64
}

// marchChord drives steps implicit time steps of b on solver with the given
// options, advancing the previous time level after each converged solve.
func marchChord(t testing.TB, b *pde.Burgers, solver *nonlin.SparseSolver, opts nonlin.NewtonOptions, steps int) []stepFrame {
	t.Helper()
	frames := make([]stepFrame, 0, steps)
	u0 := make([]float64, b.Dim())
	for s := 0; s < steps; s++ {
		b.InitialGuessInto(u0)
		res, err := solver.Solve(nil, b, u0, opts)
		if err != nil {
			t.Fatalf("step %d: %v", s+1, err)
		}
		if !res.Converged {
			t.Fatalf("step %d did not converge (residual %g)", s+1, res.Residual)
		}
		frames = append(frames, stepFrame{
			iters:     res.Iterations,
			linSolves: res.LinearSolves,
			refactors: res.Refactorizations,
			residual:  res.Residual,
			u:         append([]float64(nil), res.U...),
		})
		if err := b.Advance(res.U); err != nil {
			t.Fatalf("advance %d: %v", s+1, err)
		}
	}
	return frames
}

// TestChordReusesFactorizationsAcrossSteps is the tentpole acceptance test
// at the solver layer: along a smooth trajectory chord mode must carry one
// factorization across Newton iterations and across time steps, so the
// trajectory-wide refactorization count stays far below the linear-solve
// count (classical Newton pins them equal).
func TestChordReusesFactorizationsAcrossSteps(t *testing.T) {
	const steps = 6
	opts := nonlin.NewtonOptions{Tol: 1e-10, MaxIter: 60, Chord: true}

	b := transientBurgers(t, 6, 17)
	solver := nonlin.NewSparseSolver()
	defer solver.Close()
	frames := marchChord(t, b, solver, opts, steps)

	var linSolves, refactors int
	for _, f := range frames {
		linSolves += f.linSolves
		refactors += f.refactors
	}
	if refactors == 0 {
		t.Fatal("chord trajectory performed no refactorization at all — the first step must factor once")
	}
	if refactors >= linSolves {
		t.Fatalf("chord mode reused nothing: %d refactorizations for %d linear solves", refactors, linSolves)
	}
	// Steps after the first should mostly ride the first step's
	// factorization: consecutive Crank–Nicolson steps differ by O(dt).
	if frames[0].refactors == 0 {
		t.Fatal("first step must refactor (no factorization exists yet)")
	}
	var laterRefactors int
	for _, f := range frames[1:] {
		laterRefactors += f.refactors
	}
	if laterRefactors > linSolves/2 {
		t.Fatalf("cross-step reuse too weak: %d refactorizations after step 1 for %d linear solves", laterRefactors, linSolves)
	}
}

// TestClassicalNewtonRefactorsEverySolve pins the accounting identity the
// reuse win is measured against: without chord mode every linear solve is
// preceded by a fresh factorization.
func TestClassicalNewtonRefactorsEverySolve(t *testing.T) {
	b := transientBurgers(t, 6, 17)
	solver := nonlin.NewSparseSolver()
	defer solver.Close()
	frames := marchChord(t, b, solver, nonlin.NewtonOptions{Tol: 1e-10, MaxIter: 60}, 4)
	for i, f := range frames {
		if f.refactors != f.linSolves {
			t.Fatalf("step %d: classical Newton must refactor per solve: %d refactorizations, %d linear solves",
				i+1, f.refactors, f.linSolves)
		}
	}
}

// TestChordProcsBitIdentical extends the cross-procs determinism contract
// to chord mode: the refresh gate reads only residual values, which are
// bit-identical at every worker count, so whole chord trajectories — gate
// decisions included — must match across procs settings.
func TestChordProcsBitIdentical(t *testing.T) {
	const steps = 5
	opts := nonlin.NewtonOptions{Tol: 1e-10, MaxIter: 60, Chord: true}

	// n = 6 fits the band kernels in one or two chunks; n = 16 (dim 512)
	// spreads them over many.
	for _, n := range []int{6, 16} {
		ref := marchChord(t, transientBurgers(t, n, 23), nonlin.NewSparseSolver(), opts, steps)

		for _, procs := range []int{2, 8} {
			o := opts
			o.Procs = procs
			solver := nonlin.NewSparseSolver()
			got := marchChord(t, transientBurgers(t, n, 23), solver, o, steps)
			for s := range ref {
				if got[s].iters != ref[s].iters || got[s].linSolves != ref[s].linSolves ||
					got[s].refactors != ref[s].refactors {
					t.Fatalf("n=%d procs=%d step %d: gate decisions diverged: got %+v want %+v",
						n, procs, s+1, got[s], ref[s])
				}
				if got[s].residual != ref[s].residual {
					t.Fatalf("n=%d procs=%d step %d: residual %x, want %x", n, procs, s+1, got[s].residual, ref[s].residual)
				}
				for i := range ref[s].u {
					if got[s].u[i] != ref[s].u[i] {
						t.Fatalf("n=%d procs=%d step %d: U[%d] = %x, want %x", n, procs, s+1, i, got[s].u[i], ref[s].u[i])
					}
				}
			}
			solver.Close()
		}
	}
}

// TestChordStaleFactorizationTriggersRefresh forces the refresh gate: after
// the fields jump (no O(dt) drift — a different problem in the same
// stencil), the held factorization stops contracting the residual and the
// gate must refresh it rather than iterate uselessly to MaxIter.
func TestChordStaleFactorizationTriggersRefresh(t *testing.T) {
	b := transientBurgers(t, 6, 31)
	solver := nonlin.NewSparseSolver()
	defer solver.Close()
	opts := nonlin.NewtonOptions{Tol: 1e-10, MaxIter: 60, Chord: true}

	marchChord(t, b, solver, opts, 1)

	// Jump the problem out from under the held factorization. The fields
	// grow 10×, so the frozen Jacobian's convection terms are badly wrong
	// and the chord iteration stops contracting at ρ = 0.5.
	rng := rand.New(rand.NewSource(977))
	for _, field := range [][]float64{b.UPrev, b.VPrev, b.RHS0, b.RHS1} {
		for i := range field {
			field[i] = 5 * (2*rng.Float64() - 1)
		}
	}
	u0 := make([]float64, b.Dim())
	b.InitialGuessInto(u0)
	res, err := solver.Solve(nil, b, u0, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("post-jump solve did not converge (residual %g)", res.Residual)
	}
	if res.Refactorizations == 0 {
		t.Fatal("stale factorization survived a field jump: the contraction gate never fired")
	}
}

// TestChordMaxAgeForcesRefresh pins the hard age bound: with ChordMaxAge=1
// every linear solve exceeds the age limit, so chord mode degenerates to
// classical Newton's refactor-per-solve accounting.
func TestChordMaxAgeForcesRefresh(t *testing.T) {
	b := transientBurgers(t, 6, 41)
	solver := nonlin.NewSparseSolver()
	defer solver.Close()
	opts := nonlin.NewtonOptions{Tol: 1e-10, MaxIter: 60, Chord: true, ChordMaxAge: 1}
	frames := marchChord(t, b, solver, opts, 3)
	for i, f := range frames {
		if f.refactors != f.linSolves {
			t.Fatalf("step %d: ChordMaxAge=1 must refactor per solve: %d refactorizations, %d linear solves",
				i+1, f.refactors, f.linSolves)
		}
	}
}

// TestResetReuseRestoresColdStartBits is the warm-worker determinism
// contract: re-running a trajectory on a solver that still holds the
// previous run's factorization must, after ResetReuse, reproduce the cold
// run bit for bit — gate decisions, counts and solutions.
func TestResetReuseRestoresColdStartBits(t *testing.T) {
	const steps = 4
	opts := nonlin.NewtonOptions{Tol: 1e-10, MaxIter: 60, Chord: true}

	fill := func(b *pde.Burgers) {
		rng := rand.New(rand.NewSource(53))
		for _, field := range [][]float64{b.UPrev, b.VPrev, b.RHS0, b.RHS1} {
			for i := range field {
				field[i] = 0.5 * (2*rng.Float64() - 1)
			}
		}
	}
	b, err := pde.NewBurgers(6, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	solver := nonlin.NewSparseSolver()
	defer solver.Close()

	fill(b)
	cold := marchChord(t, b, solver, opts, steps)

	// Same system pointer, same solver — the worker-pool scenario where a
	// warm factorization from the previous request is still live.
	fill(b)
	solver.ResetReuse()
	warm := marchChord(t, b, solver, opts, steps)

	for s := range cold {
		if warm[s].iters != cold[s].iters || warm[s].linSolves != cold[s].linSolves ||
			warm[s].refactors != cold[s].refactors {
			t.Fatalf("step %d: warm rerun diverged from cold run: got %+v want %+v", s+1, warm[s], cold[s])
		}
		if warm[s].residual != cold[s].residual {
			t.Fatalf("step %d: residual %x, want %x", s+1, warm[s].residual, cold[s].residual)
		}
		for i := range cold[s].u {
			if warm[s].u[i] != cold[s].u[i] {
				t.Fatalf("step %d: U[%d] = %x, want %x", s+1, i, warm[s].u[i], cold[s].u[i])
			}
		}
	}
}
