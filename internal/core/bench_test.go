package core

import (
	"math/rand"
	"testing"

	"hybridpde/internal/nonlin"
	"hybridpde/internal/pde"
)

// BenchmarkNewtonSparseSteadyStep measures one warm repeated steady-state
// Newton solve with a reused SparseSolver workspace. After the first call
// builds the Jacobian slot cache and LU storage, each step must run without
// allocating: 0 allocs/op is the regression gate for the time-stepping hot
// path.
func BenchmarkNewtonSparseSteadyStep(b *testing.B) {
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
	opts := nonlin.NewtonOptions{Tol: 1e-12, MaxIter: 60}
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

// BenchmarkHybridTimeLoop advances the Crank–Nicolson time loop through
// repeated Solve calls sharing one Workspace, the pattern of a time-dependent
// Burgers run. ReportAllocs tracks the steady-state allocation cost of a
// pure-digital step.
func BenchmarkHybridTimeLoop(b *testing.B) {
	burgers, err := pde.NewBurgers(8, 0.8)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(81))
	for i := range burgers.UPrev {
		burgers.UPrev[i] = 0.5 * (2*rng.Float64() - 1)
		burgers.VPrev[i] = 0.5 * (2*rng.Float64() - 1)
	}
	opts := Options{SkipAnalog: true, Workspace: NewWorkspace()}
	rep, err := Solve(nil, burgers, opts)
	if err != nil {
		b.Fatal(err)
	}
	if err := burgers.Advance(rep.U); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := Solve(nil, burgers, opts)
		if err != nil {
			b.Fatal(err)
		}
		if err := burgers.Advance(rep.U); err != nil {
			b.Fatal(err)
		}
	}
}
