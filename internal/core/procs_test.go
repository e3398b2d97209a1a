package core

import (
	"math/rand"
	"testing"

	"hybridpde/internal/analog"
	"hybridpde/internal/nonlin"
	"hybridpde/internal/pde"
)

// TestSolveProcsBitIdentical runs the full hybrid pipeline (analog seed +
// digital polish) at every worker count and demands bit-identical reports:
// same solution vector, same residuals, same iteration and FactorOps
// accounting. The n = 16 input is pure digital (an analog-seeded 16×16
// would cost seconds): dim 512 spreads the band kernels over many chunks,
// where n = 4 fits one or two.
func TestSolveProcsBitIdentical(t *testing.T) {
	for _, in := range []struct {
		n      int
		analog bool
	}{{4, true}, {16, false}} {
		run := func(procs int) Report {
			b := mustRandomBurgers(t, in.n, 0.5, 61)
			opts := Options{
				Seeder:     AnalogSeeder(analog.NewPrototype(10)),
				SkipAnalog: !in.analog,
				Workspace:  NewWorkspace(),
				Procs:      procs,
			}
			rep, err := Solve(nil, b, opts)
			if err != nil {
				t.Fatal(err)
			}
			rep.U = append([]float64(nil), rep.U...)
			return rep
		}
		ref := run(0)
		if !ref.Digital.Converged {
			t.Fatalf("n=%d: serial reference did not converge", in.n)
		}
		for _, procs := range []int{1, 2, 8} {
			rep := run(procs)
			if rep.SeedResidual != ref.SeedResidual || rep.FinalResidual != ref.FinalResidual {
				t.Fatalf("n=%d procs=%d: residuals diverged: seed %x/%x final %x/%x",
					in.n, procs, rep.SeedResidual, ref.SeedResidual, rep.FinalResidual, ref.FinalResidual)
			}
			if rep.Digital.Iterations != ref.Digital.Iterations || rep.Digital.FactorOps != ref.Digital.FactorOps {
				t.Fatalf("n=%d procs=%d: digital accounting diverged: %+v vs %+v", in.n, procs, rep.Digital, ref.Digital)
			}
			for i := range ref.U {
				if rep.U[i] != ref.U[i] {
					t.Fatalf("n=%d procs=%d: U[%d] = %x, want %x", in.n, procs, i, rep.U[i], ref.U[i])
				}
			}
		}
	}
}

// TestLadderProcsBitIdenticalFallbackReport forces a degradation (railed
// integrators reject the analog seed) and checks the whole FallbackReport —
// every rung attempt row — is identical at every worker count. Procs flows
// through Ladder.Solve into each rung's digital stage.
func TestLadderProcsBitIdenticalFallbackReport(t *testing.T) {
	run := func(procs int) (Report, FallbackReport) {
		b := mustRandomBurgers(t, 2, 0.5, 61)
		l := NewLadderRungs(DefaultRungs()...)
		rep, err := l.Solve(nil, b,
			Options{Seeder: AnalogSeeder(faultyPrototype(t, 10, "railed *\n")), Procs: procs},
			LadderOptions{})
		if err != nil {
			t.Fatal(err)
		}
		rep.U = append([]float64(nil), rep.U...)
		fb := *rep.Fallback
		fb.Attempts = append([]RungAttempt(nil), fb.Attempts...)
		return rep, fb
	}
	refRep, refFB := run(0)
	if refFB.Final != RungDigital || !refFB.Degraded {
		t.Fatalf("fixture must degrade to the digital rung: %+v", refFB)
	}
	for _, procs := range []int{2, 8} {
		rep, fb := run(procs)
		if fb.Final != refFB.Final || fb.Degraded != refFB.Degraded ||
			fb.SeedRejections != refFB.SeedRejections || len(fb.Attempts) != len(refFB.Attempts) {
			t.Fatalf("procs=%d: FallbackReport shape diverged: %+v vs %+v", procs, fb, refFB)
		}
		for i := range fb.Attempts {
			if fb.Attempts[i] != refFB.Attempts[i] {
				t.Fatalf("procs=%d: attempt %d diverged: %+v vs %+v", procs, i, fb.Attempts[i], refFB.Attempts[i])
			}
		}
		if rep.FinalResidual != refRep.FinalResidual {
			t.Fatalf("procs=%d: FinalResidual %x, want %x", procs, rep.FinalResidual, refRep.FinalResidual)
		}
		for i := range refRep.U {
			if rep.U[i] != refRep.U[i] {
				t.Fatalf("procs=%d: U[%d] = %x, want %x", procs, i, rep.U[i], refRep.U[i])
			}
		}
	}
}

// TestHomotopyRungProcsBitIdentical: the homotopy rung hands Procs to its
// own solver and, through it, to the system's pool; at n = 16 the Jacobian
// assembly fans out. Every worker count must serve the same bits.
func TestHomotopyRungProcsBitIdentical(t *testing.T) {
	var ref Report
	for _, procs := range []int{0, 4} {
		b, u0 := plantedBurgers(t, 16, 1)
		rep, err := NewLadderRungs(DefaultRungs()...).Solve(nil, b, crippledOptions(u0, procs), LadderOptions{})
		if err != nil || rep.Fallback.Final != RungHomotopy {
			t.Fatalf("procs=%d: want the homotopy rung to serve, got %+v, %v", procs, rep.Fallback, err)
		}
		if procs == 0 {
			ref = rep
			continue
		}
		if rep.Digital.Iterations != ref.Digital.Iterations || rep.Digital.FactorOps != ref.Digital.FactorOps ||
			rep.FinalResidual != ref.FinalResidual {
			t.Fatalf("procs=%d: account diverged: %+v vs %+v", procs, rep.Digital, ref.Digital)
		}
		for i := range ref.U {
			if rep.U[i] != ref.U[i] {
				t.Fatalf("procs=%d: U[%d] = %x, want %x", procs, i, rep.U[i], ref.U[i])
			}
		}
	}
}

// BenchmarkNewtonSparseSteadyStepParallel is the parallel twin of
// BenchmarkNewtonSparseSteadyStep: the same planted-root repeated solve
// with Procs set, pinning that the pooled kernels keep the warm path at
// 0 allocs/op. On multicore hardware compare the two to read the speedup;
// the repo benchmark reports it as par.speedup_p2.
func BenchmarkNewtonSparseSteadyStepParallel(b *testing.B) {
	rng := rand.New(rand.NewSource(80))
	burgers, err := pde.NewBurgers(8, 1.0)
	if err != nil {
		b.Fatal(err)
	}
	steady := pde.NewBurgersSteady(burgers)
	root := make([]float64, steady.Dim())
	for i := range root {
		root[i] = 2*rng.Float64() - 1
	}
	if err := steady.SetRHSForRoot(root); err != nil {
		b.Fatal(err)
	}
	u0 := make([]float64, steady.Dim())
	for i := range root {
		u0[i] = root[i] + 0.05*(2*rng.Float64()-1)
	}
	solver := new(nonlin.SparseSolver)
	defer solver.Close()
	opts := nonlin.NewtonOptions{Tol: 1e-12, MaxIter: 60, Procs: 4}
	if _, err := solver.Solve(nil, steady, u0, opts); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := solver.Solve(nil, steady, u0, opts); err != nil {
			b.Fatal(err)
		}
	}
}
