package core

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"testing"

	"hybridpde/internal/analog"
	"hybridpde/internal/fault"
	"hybridpde/internal/la"
	"hybridpde/internal/nonlin"
	"hybridpde/internal/pde"
)

// faultyPrototype builds a prototype accelerator with the given fault spec
// compiled in; an empty spec leaves the accelerator healthy. Fixed seeds
// everywhere keep every test in this file bit-reproducible.
func faultyPrototype(t *testing.T, accSeed int64, specSrc string) *analog.Accelerator {
	t.Helper()
	acc := analog.NewPrototype(accSeed)
	if specSrc != "" {
		spec, err := fault.ParseSpec("seed 5\n" + specSrc)
		if err != nil {
			t.Fatal(err)
		}
		inj, err := fault.New(spec, 7)
		if err != nil {
			t.Fatal(err)
		}
		acc.SetInjector(inj)
	}
	return acc
}

// TestSeedGateFaultTable drives every fault class through the seed-quality
// gate and checks that the faulty seed flips it while the healthy control
// passes. All randomness is pinned (problem seed, fabric seed, injector
// seed+salt), so each case is run twice and must reproduce bit for bit.
func TestSeedGateFaultTable(t *testing.T) {
	cases := []struct {
		name string
		spec string // fault spec body ("" = healthy control)
		gate float64
		tmax float64 // settle horizon override (0 = default 200τ)
		want bool    // SeedRejected
	}{
		{name: "healthy", spec: "", gate: 0.5, want: false},
		{name: "stuck", spec: "stuck *\n", gate: 0.5, want: true},
		{name: "railed", spec: "railed *\n", gate: 0.5, want: true},
		// DAC drift only corrupts the initial state, which a full-length
		// continuous-Newton flow erases (the paper's §6 robustness argument);
		// at a 1τ horizon the drifted start has not recovered. The healthy
		// control at the same horizon and gate stays accepted.
		{name: "healthy-1tau", spec: "", gate: 0.43, tmax: 1, want: false},
		{name: "dac-drift", spec: "dac-drift * 0.8 0.9\n", gate: 0.43, tmax: 1, want: true},
		{name: "adc-drift", spec: "adc-drift * 2 0.5\n", gate: 0.5, want: true},
		{name: "saturation", spec: "saturation 0.05\n", gate: 0.5, want: true},
		{name: "burst", spec: "burst 1 3\n", gate: 0.5, want: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run := func() Report {
				b := mustRandomBurgers(t, 2, 0.5, 61)
				opts := Options{Seeder: AnalogSeeder(faultyPrototype(t, 10, tc.spec)), SeedGate: tc.gate}
				opts.Analog.TMaxTau = tc.tmax
				rep, err := Solve(nil, b, opts)
				if err != nil {
					t.Fatal(err)
				}
				return rep
			}
			rep := run()
			if rep.SeedRejected != tc.want {
				t.Fatalf("SeedRejected = %v, want %v (seed %g vs gate %g·start %g)",
					rep.SeedRejected, tc.want, rep.SeedResidual, tc.gate, rep.StartResidual)
			}
			if rep.StartResidual <= 0 {
				t.Fatal("gated solve must record the start residual")
			}
			if !rep.Digital.Converged {
				t.Fatal("the digital polish must converge whether or not the seed was kept")
			}
			again := run()
			if again.SeedResidual != rep.SeedResidual || again.StartResidual != rep.StartResidual ||
				again.FinalResidual != rep.FinalResidual || again.SeedRejected != rep.SeedRejected {
				t.Fatalf("repeat run diverged: %+v vs %+v", rep, again)
			}
		})
	}
}

func TestSeedGateDisabledKeepsBadSeed(t *testing.T) {
	b := mustRandomBurgers(t, 2, 0.5, 61)
	// Gate off: even a railed seed is handed to the polish unexamined.
	rep, err := Solve(nil, b, Options{Seeder: AnalogSeeder(faultyPrototype(t, 10, "railed *\n"))})
	if err != nil {
		t.Fatal(err)
	}
	if rep.SeedRejected {
		t.Fatal("SeedGate 0 must disable gating")
	}
	if rep.StartResidual != 0 {
		t.Fatal("ungated solve should not spend an Eval on the start residual")
	}
}

func TestLadderHealthyFirstRung(t *testing.T) {
	b := mustRandomBurgers(t, 2, 0.5, 61)
	l := NewLadderRungs(DefaultRungs()...)
	rep, err := l.Solve(nil, b, Options{Seeder: AnalogSeeder(analog.NewPrototype(10))}, LadderOptions{})
	if err != nil {
		t.Fatal(err)
	}
	fb := rep.Fallback
	if fb == nil {
		t.Fatal("ladder solve must attach a FallbackReport")
	}
	if fb.Final != RungAnalog || fb.Degraded {
		t.Fatalf("healthy hardware must be served by the first rung: %+v", fb)
	}
	if len(fb.Attempts) != 1 || fb.SeedRejections != 0 {
		t.Fatalf("healthy ladder account wrong: %+v", fb)
	}
	if !fb.Attempts[0].Converged || fb.Attempts[0].Seconds <= 0 {
		t.Fatalf("attempt row incomplete: %+v", fb.Attempts[0])
	}
	if rep.FinalResidual > 1e-10 {
		t.Fatalf("residual %g too large", rep.FinalResidual)
	}
}

func TestLadderDegradesToDigitalUnderFaults(t *testing.T) {
	run := func() (Report, FallbackReport) {
		b := mustRandomBurgers(t, 2, 0.5, 61)
		l := NewLadderRungs(DefaultRungs()...)
		rep, err := l.Solve(nil, b,
			Options{Seeder: AnalogSeeder(faultyPrototype(t, 10, "railed *\n"))}, LadderOptions{})
		if err != nil {
			t.Fatal(err)
		}
		fb := *rep.Fallback
		fb.Attempts = append([]RungAttempt(nil), fb.Attempts...)
		return rep, fb
	}
	rep, fb := run()
	if fb.Final != RungDigital || !fb.Degraded {
		t.Fatalf("railed integrators must degrade to the digital rung: %+v", fb)
	}
	if fb.SeedRejections != 1 {
		t.Fatalf("SeedRejections = %d, want 1", fb.SeedRejections)
	}
	if len(fb.Attempts) != 2 {
		t.Fatalf("want rejected-analog + digital attempt rows, got %+v", fb.Attempts)
	}
	if fb.Attempts[0].Rung != RungAnalog || !fb.Attempts[0].SeedRejected {
		t.Fatalf("first row must be the rejected analog rung: %+v", fb.Attempts[0])
	}
	if fb.Attempts[1].Rung != RungDigital || !fb.Attempts[1].Converged {
		t.Fatalf("second row must be the converged digital rung: %+v", fb.Attempts[1])
	}
	// Failed-rung cost is genuinely spent: totals cover both rows.
	if rep.TotalSeconds < fb.Attempts[0].Seconds+fb.Attempts[1].Seconds {
		t.Fatalf("totals %g must include the failed rung (%g + %g)",
			rep.TotalSeconds, fb.Attempts[0].Seconds, fb.Attempts[1].Seconds)
	}
	if rep.FinalResidual > 1e-10 {
		t.Fatalf("residual %g too large", rep.FinalResidual)
	}
	_, again := run()
	if len(again.Attempts) != len(fb.Attempts) || again.Attempts[0].SeedResidual != fb.Attempts[0].SeedResidual {
		t.Fatalf("repeat ladder run diverged: %+v vs %+v", fb, again)
	}
}

func TestLadderDeadTileFallsThrough(t *testing.T) {
	// A dead tile drops prototype capacity from 8 to 7, below the 2×2
	// problem's 8 unknowns, and the 2×2 grid cannot be re-tiled under that
	// budget: both seeded rungs fail and the digital rung serves.
	b := mustRandomBurgers(t, 2, 0.5, 61)
	l := NewLadderRungs(DefaultRungs()...)
	rep, err := l.Solve(nil, b,
		Options{Seeder: AnalogSeeder(faultyPrototype(t, 10, "dead-tile 0\n"))}, LadderOptions{})
	if err != nil {
		t.Fatal(err)
	}
	fb := rep.Fallback
	if fb.Final != RungDigital || !fb.Degraded {
		t.Fatalf("dead tile must degrade to digital: %+v", fb)
	}
	if fb.Attempts[0].Err == "" {
		t.Fatalf("the failed seeded rung must record its error: %+v", fb.Attempts[0])
	}
	if !rep.Digital.Converged || rep.FinalResidual > 1e-10 {
		t.Fatalf("digital rung must still converge: %+v", rep)
	}
}

func TestLadderHomotopyLastResort(t *testing.T) {
	// Cripple the damped-Newton polish (2 iterations, fixed full step) so
	// the digital rung cannot converge; the homotopy rung has its own
	// corrector options and must still serve the request.
	b := mustRandomBurgers(t, 2, 0.5, 61)
	opts := Options{
		SkipAnalog:      true,
		Newton:          nonlin.NewtonOptions{MaxIter: 2, Damping: 1},
		DisableAutoDamp: true,
	}
	l := NewLadderRungs(DefaultRungs()...)
	rep, err := l.Solve(nil, b, opts, LadderOptions{})
	if err != nil {
		t.Fatal(err)
	}
	fb := rep.Fallback
	if fb.Final != RungHomotopy || !fb.Degraded {
		t.Fatalf("want the homotopy rung to serve, got %+v", fb)
	}
	if len(fb.Attempts) != 2 || fb.Attempts[0].Rung != RungDigital || fb.Attempts[0].Converged {
		t.Fatalf("want failed-digital + homotopy rows, got %+v", fb.Attempts)
	}
	if !fb.Attempts[1].Converged || fb.Attempts[1].Iterations == 0 || fb.Attempts[1].Seconds <= 0 {
		t.Fatalf("homotopy row incomplete: %+v", fb.Attempts[1])
	}
	if rep.FinalResidual > 1e-8 {
		t.Fatalf("homotopy residual %g too large", rep.FinalResidual)
	}
}

// plantedBurgers is a Burgers step problem (Re 0.5) with a planted root
// and a cold start, both uniform in [−1, 1].
func plantedBurgers(t *testing.T, n int, seed int64) (*pde.Burgers, []float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b, err := pde.RandomBurgers(n, 0.5, 1.0, rng)
	if err != nil {
		t.Fatal(err)
	}
	root := make([]float64, b.Dim())
	u0 := make([]float64, b.Dim())
	for i := range root {
		root[i] = 2*rng.Float64() - 1
		u0[i] = 2*rng.Float64() - 1
	}
	if err := b.SetRHSForRoot(root); err != nil {
		t.Fatal(err)
	}
	return b, u0
}

// crippledOptions limits the digital polish to two full Newton steps from
// u0, so only the homotopy rung, with its own corrector, can converge.
func crippledOptions(u0 []float64, procs int) Options {
	return Options{
		SkipAnalog:      true,
		Newton:          nonlin.NewtonOptions{MaxIter: 2, Damping: 1},
		DisableAutoDamp: true,
		InitialGuess:    u0,
		Procs:           procs,
	}
}

// TestLadderHomotopySweep serves crippled ladders on planted-root Burgers
// problems from the homotopy rung alone and checks every answer against
// GoldenSolve from the same start.
func TestLadderHomotopySweep(t *testing.T) {
	l := NewLadderRungs(DefaultRungs()...)
	for _, n := range []int{2, 4, 8} {
		for seed := int64(1); seed <= 20; seed++ {
			b, u0 := plantedBurgers(t, n, seed)
			rep, err := l.Solve(nil, b, crippledOptions(u0, 0), LadderOptions{})
			if err != nil || rep.Fallback.Final != RungHomotopy {
				t.Fatalf("n=%d seed=%d: want the homotopy rung to serve, got %+v, %v", n, seed, rep.Fallback, err)
			}
			golden, err := GoldenSolve(nil, b, u0)
			if err != nil {
				t.Fatalf("n=%d seed=%d: %v", n, seed, err)
			}
			diff := la.Copy(rep.U)
			la.Axpy(-1, golden, diff)
			if la.Norm2(diff) > 1e-6*la.Norm2(golden) {
				t.Fatalf("n=%d seed=%d: ‖u − golden‖ = %g, ‖golden‖ = %g", n, seed, la.Norm2(diff), la.Norm2(golden))
			}
		}
	}
}

func TestLadderExhausted(t *testing.T) {
	b := mustRandomBurgers(t, 2, 0.5, 61)
	opts := Options{
		SkipAnalog:      true,
		Newton:          nonlin.NewtonOptions{MaxIter: 2, Damping: 1},
		DisableAutoDamp: true,
	}
	l := NewLadderRungs(AnalogRung(), DecomposedRung(), DigitalRung())
	rep, err := l.Solve(nil, b, opts, LadderOptions{})
	if err == nil {
		t.Fatal("crippled Newton with no homotopy rung must fail")
	}
	if !errors.Is(err, nonlin.ErrNoConvergence) {
		t.Fatalf("exhausted ladder must wrap the rung error, got %v", err)
	}
	if !strings.Contains(err.Error(), "ladder exhausted") {
		t.Fatalf("error %q should say the ladder is exhausted", err)
	}
	fb := rep.Fallback
	if fb == nil || fb.Final != "" || len(fb.Attempts) != 1 {
		t.Fatalf("exhausted ladder account wrong: %+v", fb)
	}
}

func TestLadderCtxCancelAborts(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	b := mustRandomBurgers(t, 2, 0.5, 61)
	l := NewLadderRungs(DefaultRungs()...)
	_, err := l.Solve(ctx, b, Options{Seeder: AnalogSeeder(analog.NewPrototype(10))}, LadderOptions{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled context must abort the ladder, got %v", err)
	}
}

// TestLadderReuseAcrossSolves is the serving contract: one Ladder serves
// many solves, and a healthy solve after a degraded one must not inherit
// stale fallback state.
func TestLadderReuseAcrossSolves(t *testing.T) {
	l := NewLadderRungs(DefaultRungs()...)
	b := mustRandomBurgers(t, 2, 0.5, 61)
	rep, err := l.Solve(nil, b,
		Options{Seeder: AnalogSeeder(faultyPrototype(t, 10, "railed *\n"))}, LadderOptions{})
	if err != nil || rep.Fallback.Final != RungDigital {
		t.Fatalf("setup: want degraded digital solve, got %+v, %v", rep.Fallback, err)
	}
	b2 := mustRandomBurgers(t, 2, 0.5, 61)
	rep2, err := l.Solve(nil, b2, Options{Seeder: AnalogSeeder(analog.NewPrototype(10))}, LadderOptions{})
	if err != nil {
		t.Fatal(err)
	}
	fb := rep2.Fallback
	if fb.Final != RungAnalog || fb.Degraded || fb.SeedRejections != 0 || len(fb.Attempts) != 1 {
		t.Fatalf("stale fallback state leaked into the next solve: %+v", fb)
	}
}
