package core

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"hybridpde/internal/analog"
	"hybridpde/internal/la"
	"hybridpde/internal/nonlin"
	"hybridpde/internal/pde"
	"hybridpde/internal/problem"
)

func mustRandomBurgers(t *testing.T, n int, re float64, seed int64) *pde.Burgers {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b, err := pde.RandomBurgers(n, re, 1.0, rng)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestHybridDirectPath(t *testing.T) {
	b := mustRandomBurgers(t, 2, 0.5, 61)
	opts := Options{Seeder: AnalogSeeder(analog.NewPrototype(10))}
	rep, err := Solve(nil, b, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.AnalogUsed || rep.Decomposed {
		t.Fatalf("2×2 problem must use the direct analog path: %+v", rep)
	}
	if rep.FinalResidual > 1e-10 {
		t.Fatalf("polish residual %g too large", rep.FinalResidual)
	}
	if rep.AnalogSeconds <= 0 || rep.AnalogEnergyJ <= 0 {
		t.Fatal("analog stage cost not recorded")
	}
	if rep.TotalSeconds < rep.DigitalSeconds {
		t.Fatal("total time must include both stages")
	}
	// The analog stage is orders of magnitude cheaper than the digital.
	if rep.AnalogSeconds > rep.DigitalSeconds {
		t.Fatalf("analog stage (%g s) should be negligible next to digital (%g s)",
			rep.AnalogSeconds, rep.DigitalSeconds)
	}
}

// TestDirectSeederOverCapacityIsInsufficientHardware pins the sentinel a
// caller classifies on: a direct seed of a system larger than the
// accelerator must be recognisable by errors.Is, not by its message.
func TestDirectSeederOverCapacityIsInsufficientHardware(t *testing.T) {
	b := mustRandomBurgers(t, 3, 0.5, 61)
	acc := analog.NewPrototype(10)
	if b.Dim() <= acc.Capacity() {
		t.Fatalf("dimension %d fits capacity %d; the test needs an oversize system", b.Dim(), acc.Capacity())
	}
	err := (&directSeeder{acc: acc}).Seed(context.Background(), b, b.InitialGuess(), &Options{}, &Report{})
	if !errors.Is(err, analog.ErrInsufficientHardware) {
		t.Fatalf("over-capacity direct seed: got %v, want analog.ErrInsufficientHardware", err)
	}
}

func TestHybridDecomposedPath(t *testing.T) {
	// 4×4 grid = 32 unknowns > prototype capacity 8 → red-black NLGS over
	// 2×2 subdomains.
	b := mustRandomBurgers(t, 4, 0.5, 62)
	rep, err := Solve(nil, b, Options{Seeder: AnalogSeeder(analog.NewPrototype(11))})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Decomposed {
		t.Fatal("oversize problem must decompose")
	}
	if rep.Subproblems != 4 {
		t.Fatalf("expected 4 subdomains, got %d", rep.Subproblems)
	}
	if rep.GSSweeps < 1 {
		t.Fatal("Gauss-Seidel sweeps not recorded")
	}
	if rep.FinalResidual > 1e-10 {
		t.Fatalf("polish residual %g too large", rep.FinalResidual)
	}
}

func TestParallelDecompositionMatchesSerial(t *testing.T) {
	// The red-black sweep must produce the same iterate and the same
	// serially-accounted cost whether tiles of a colour run on one
	// accelerator or fan out over several. Noise is disabled so the chips
	// are interchangeable; determinism is then a property of the sweep.
	b := mustRandomBurgers(t, 4, 0.8, 71)
	solve := func(workers int) Report {
		accels := make([]*analog.Accelerator, workers)
		for i := range accels {
			accels[i] = analog.NewPrototype(20)
		}
		opts := Options{Seeder: DecomposedSeeder(accels...)}
		opts.Analog.DisableNoise = true
		rep, err := Solve(nil, b, opts)
		if err != nil {
			t.Fatalf("%d-worker solve: %v", workers, err)
		}
		return rep
	}
	serial := solve(1)
	parallel := solve(3)
	if serial.AnalogSeconds != parallel.AnalogSeconds {
		t.Fatalf("analog time must be accounted serially: %g vs %g",
			serial.AnalogSeconds, parallel.AnalogSeconds)
	}
	if serial.AnalogEnergyJ != parallel.AnalogEnergyJ {
		t.Fatalf("analog energy differs: %g vs %g", serial.AnalogEnergyJ, parallel.AnalogEnergyJ)
	}
	if serial.GSSweeps != parallel.GSSweeps {
		t.Fatalf("sweep counts differ: %d vs %d", serial.GSSweeps, parallel.GSSweeps)
	}
	if serial.SeedResidual != parallel.SeedResidual {
		t.Fatalf("seeds differ: residual %g vs %g", serial.SeedResidual, parallel.SeedResidual)
	}
	if len(serial.U) != len(parallel.U) {
		t.Fatal("solution length mismatch")
	}
	for i := range serial.U {
		if serial.U[i] != parallel.U[i] {
			t.Fatalf("solutions differ at %d: %g vs %g", i, serial.U[i], parallel.U[i])
		}
	}
}

func TestCancelledContextAbortsSolve(t *testing.T) {
	b := mustRandomBurgers(t, 4, 0.5, 72)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Solve(ctx, b, Options{SkipAnalog: true})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled in the error chain, got %v", err)
	}
	// Cancelling must also abort the analog stage, including the
	// decomposed path's worker pool.
	_, err = Solve(ctx, b, Options{Seeder: AnalogSeeder(analog.NewPrototype(16))})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("analog stage: want context.Canceled in the error chain, got %v", err)
	}
}

func TestSeedImprovesOverColdStart(t *testing.T) {
	// At an uncomfortable Reynolds number the analog seed should land the
	// digital solver closer to the root than the cold start.
	b := mustRandomBurgers(t, 2, 2.0, 63)
	seeder := AnalogSeeder(analog.NewPrototype(12))
	seeded, err := Solve(nil, b, Options{Seeder: seeder})
	if err != nil {
		t.Skipf("seeded solve did not converge for this draw: %v", err)
	}
	cold, err := Solve(nil, b, Options{Seeder: seeder, SkipAnalog: true})
	if err != nil {
		t.Skipf("cold solve did not converge for this draw: %v", err)
	}
	f := make([]float64, b.Dim())
	if err := b.Eval(b.InitialGuess(), f); err != nil {
		t.Fatal(err)
	}
	coldResidual := la.Norm2(f)
	if seeded.SeedResidual >= coldResidual {
		t.Fatalf("analog seed residual %g should beat cold-start residual %g",
			seeded.SeedResidual, coldResidual)
	}
	if seeded.Digital.Iterations > cold.Digital.Iterations {
		t.Fatalf("seeded polish took %d iterations, cold took %d — seeding should not hurt",
			seeded.Digital.Iterations, cold.Digital.Iterations)
	}
}

func TestBurgers1DThroughSamePipeline(t *testing.T) {
	// Solve is generic over problem.SparseSystem: the 1-D problem runs the
	// identical pipeline, analog seed included.
	b, err := pde.NewBurgers1D(8, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Solve(nil, b, Options{Seeder: AnalogSeeder(analog.NewPrototype(17))})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.AnalogUsed {
		t.Fatal("1-D problem fits the prototype and must use the analog path")
	}
	if rep.FinalResidual > 1e-10 {
		t.Fatalf("polish residual %g too large", rep.FinalResidual)
	}
}

func TestGoldenSolveCertifies(t *testing.T) {
	b := mustRandomBurgers(t, 3, 0.5, 64)
	u, err := GoldenSolve(nil, b, b.InitialGuess())
	if err != nil {
		t.Fatal(err)
	}
	f := make([]float64, b.Dim())
	if err := b.Eval(u, f); err != nil {
		t.Fatal(err)
	}
	if la.Norm2(f) > 1e-9 {
		t.Fatalf("golden solution not certified: ‖F‖ = %g", la.Norm2(f))
	}
}

func TestDigitalToAccuracyStopsAtTarget(t *testing.T) {
	b := mustRandomBurgers(t, 3, 0.5, 65)
	golden, err := GoldenSolve(nil, b, b.InitialGuess())
	if err != nil {
		t.Fatal(err)
	}
	// Perturb the start, then demand the paper's 5.38 % accuracy.
	u0 := la.Copy(b.InitialGuess())
	for i := range u0 {
		u0[i] += 0.3
	}
	res, err := DigitalToAccuracy(nil, b, u0, golden, 0.0538, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if res.RMS > 0.0538 {
		t.Fatalf("stopped at RMS %g, above target", res.RMS)
	}
	// A tighter target must need at least as many iterations.
	res2, err := DigitalToAccuracy(nil, b, u0, golden, 1e-6, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Iterations < res.Iterations {
		t.Fatalf("tighter target took fewer iterations: %d < %d", res2.Iterations, res.Iterations)
	}
}

func TestDigitalToAccuracyAlreadyThere(t *testing.T) {
	b := mustRandomBurgers(t, 2, 0.5, 66)
	golden, err := GoldenSolve(nil, b, b.InitialGuess())
	if err != nil {
		t.Fatal(err)
	}
	res, err := DigitalToAccuracy(nil, b, golden, golden, 0.0538, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != 0 {
		t.Fatalf("starting at the golden solution should need 0 iterations, took %d", res.Iterations)
	}
}

func TestHybridInitialGuessValidation(t *testing.T) {
	b := mustRandomBurgers(t, 2, 0.5, 67)
	if _, err := Solve(nil, b, Options{InitialGuess: make([]float64, 3)}); err == nil {
		t.Fatal("wrong-length initial guess must be rejected")
	}
}

func TestHybridSkipAnalogReportsNoAnalogCost(t *testing.T) {
	b := mustRandomBurgers(t, 2, 0.5, 68)
	rep, err := Solve(nil, b, Options{Seeder: AnalogSeeder(analog.NewPrototype(14)), SkipAnalog: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.AnalogUsed || rep.AnalogSeconds != 0 || rep.AnalogEnergyJ != 0 {
		t.Fatalf("cold solve must report zero analog cost: %+v", rep)
	}
	if rep.TotalSeconds != rep.DigitalSeconds {
		t.Fatal("totals must equal the digital stage when analog is skipped")
	}
}

func TestHybridGPUPerfTargetPricing(t *testing.T) {
	b := mustRandomBurgers(t, 2, 0.5, 69)
	repCPU, err := Solve(nil, b, Options{SkipAnalog: true, Perf: PerfCPU})
	if err != nil {
		t.Fatal(err)
	}
	repGPU, err := Solve(nil, b, Options{SkipAnalog: true, Perf: PerfGPU})
	if err != nil {
		t.Fatal(err)
	}
	if repCPU.Digital.Iterations != repGPU.Digital.Iterations {
		t.Fatal("pricing target must not change the algorithm")
	}
	if repCPU.DigitalSeconds == repGPU.DigitalSeconds {
		t.Fatal("CPU and GPU pricing should differ")
	}
	// For a tiny 8-unknown problem, GPU launch latency dominates: the GPU
	// must be priced slower than the CPU (the paper offloads only large
	// problems to the GPU).
	if repGPU.DigitalSeconds < repCPU.DigitalSeconds {
		t.Fatalf("tiny problems should be slower on the GPU model: GPU %g s vs CPU %g s",
			repGPU.DigitalSeconds, repCPU.DigitalSeconds)
	}
}

func TestAutoDampDefaultAndOptOut(t *testing.T) {
	// Regression: defaults() used to force AutoDamp unconditionally, so a
	// caller's fixed explicit Damping was silently replaced by the schedule.
	var forced Options
	forced.defaults()
	if !forced.Newton.AutoDamp {
		t.Fatal("the evaluation protocol enables AutoDamp by default")
	}
	var kept Options
	kept.DisableAutoDamp = true
	kept.Newton.Damping = 0.5
	kept.defaults()
	if kept.Newton.AutoDamp {
		t.Fatal("DisableAutoDamp must keep the caller's damping settings")
	}
	if kept.Newton.Damping != 0.5 {
		t.Fatal("explicit damping must survive defaults()")
	}

	// Behavioural check: a fixed half-step solve reports exactly that
	// damping, while the default auto schedule starts undamped on an easy
	// problem.
	b := mustRandomBurgers(t, 2, 0.2, 73)
	fixed, err := Solve(nil, b, Options{
		SkipAnalog:      true,
		DisableAutoDamp: true,
		Newton:          nonlin.NewtonOptions{Damping: 0.5, MaxIter: 400},
	})
	if err != nil {
		t.Fatal(err)
	}
	if fixed.Digital.DampingUsed != 0.5 {
		t.Fatalf("fixed damping 0.5 reported as %g", fixed.Digital.DampingUsed)
	}
	auto, err := Solve(nil, b, Options{SkipAnalog: true})
	if err != nil {
		t.Fatal(err)
	}
	if auto.Digital.DampingUsed != 1 {
		t.Fatalf("easy problem under AutoDamp should converge undamped, used %g",
			auto.Digital.DampingUsed)
	}
}

func TestWorkspaceReuseMatchesFreshSolve(t *testing.T) {
	b := mustRandomBurgers(t, 3, 0.8, 74)
	ws := NewWorkspace()
	var prev []float64
	for step := 0; step < 3; step++ {
		rep, err := Solve(nil, b, Options{SkipAnalog: true, Workspace: ws})
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := Solve(nil, b, Options{SkipAnalog: true})
		if err != nil {
			t.Fatal(err)
		}
		for i := range rep.U {
			if rep.U[i] != fresh.U[i] {
				t.Fatalf("step %d: workspace reuse changed the solution at %d", step, i)
			}
		}
		if prev != nil && &rep.U[0] != &prev[0] {
			t.Fatal("workspace solves must reuse the same solution buffer")
		}
		prev = rep.U
	}
}

func TestPerfBackendNames(t *testing.T) {
	for _, tc := range []struct {
		b    PerfBackend
		want string
	}{{PerfCPU, "cpu"}, {PerfGPU, "gpu"}, {PerfAnalogLA, "analog-la"}} {
		if got := tc.b.Name(); got != tc.want {
			t.Fatalf("backend name %q, want %q", got, tc.want)
		}
	}
}

func TestAnalogLABackendPricesSettleTime(t *testing.T) {
	// The analog linear-algebra backend charges per-iteration settle time,
	// not factorization flops: a result with many flops but few iterations
	// must be priced below the CPU backend's flop-dominated figure at a
	// large dimension.
	res := nonlin.Result{Iterations: 5, TotalIters: 5, FactorOps: 1 << 30}
	dim := 2048
	if la, cpu := PerfAnalogLA.Time(res, dim), PerfCPU.Time(res, dim); la >= cpu {
		t.Fatalf("analog-LA pricing %g should undercut the CPU's flop cost %g", la, cpu)
	}
	if PerfAnalogLA.Energy(res, dim) <= 0 {
		t.Fatal("analog-LA energy must be positive")
	}
	if math.IsNaN(PerfAnalogLA.Time(res, 0)) {
		t.Fatal("zero-dimension pricing must be finite")
	}
}

// cancellingSystem wraps a SparseSystem and cancels the given context after
// a fixed number of Eval calls — simulating a client disconnect mid-Newton.
type cancellingSystem struct {
	problem.SparseSystem
	cancel context.CancelFunc
	after  int
	evals  int
}

func (c *cancellingSystem) Eval(u, f []float64) error {
	c.evals++
	if c.evals == c.after {
		c.cancel()
	}
	return c.SparseSystem.Eval(u, f)
}

// TestSolveCtxCancelMidNewton is the serving-layer contract on core.Solve: a
// context cancelled in the middle of the Newton iteration aborts within one
// iteration and surfaces as a wrapped context.Canceled.
func TestSolveCtxCancelMidNewton(t *testing.T) {
	b := mustRandomBurgers(t, 3, 0.5, 17)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// The first Eval of the polish computes the initial residual; cancelling
	// on the second lands mid-iteration.
	sys := &cancellingSystem{SparseSystem: b, cancel: cancel, after: 2}
	rep, err := Solve(ctx, sys, Options{SkipAnalog: true})
	if err == nil {
		t.Fatal("cancelled solve must fail")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v must wrap context.Canceled (errors.Is)", err)
	}
	if rep.Digital.TotalIters > 1 {
		t.Fatalf("solve ran %d iterations after cancellation, want abort within one", rep.Digital.TotalIters)
	}
	// An uncancelled control converges, pinning the wrapper as inert.
	ctrl := &cancellingSystem{SparseSystem: mustRandomBurgers(t, 3, 0.5, 17), cancel: func() {}, after: -1}
	if rep, err := Solve(context.Background(), ctrl, Options{SkipAnalog: true}); err != nil || !rep.Digital.Converged {
		t.Fatalf("control solve failed: %v", err)
	}
}
