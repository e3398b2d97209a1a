package core

import (
	"math/rand"
	"sync"
	"testing"

	"hybridpde/internal/nonlin"
	"hybridpde/internal/pde"
)

// steadyFixture is one same-shaped repeated-solve workload: a rooted steady
// Burgers problem plus the perturbed start the benchmarks use, so every
// solve converges in a handful of Newton iterations.
type steadyFixture struct {
	steady *pde.BurgersSteady
	u0     []float64
}

func newSteadyFixture(t testing.TB, seed int64) *steadyFixture {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	burgers, err := pde.NewBurgers(6, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	steady := pde.NewBurgersSteady(burgers)
	root := make([]float64, steady.Dim())
	for i := range root {
		root[i] = 2*rng.Float64() - 1
	}
	if err := steady.SetRHSForRoot(root); err != nil {
		t.Fatal(err)
	}
	u0 := make([]float64, steady.Dim())
	for i := range root {
		u0[i] = root[i] + 0.05*(2*rng.Float64()-1)
	}
	return &steadyFixture{steady: steady, u0: u0}
}

func (f *steadyFixture) solve(t testing.TB, ws *Workspace) {
	opts := Options{
		SkipAnalog: true,
		Workspace:  ws,
		Newton:     nonlin.NewtonOptions{Tol: 1e-12, MaxIter: 60},
	}
	rep, err := Solve(nil, f.steady, opts)
	if err != nil {
		t.Error(err)
		return
	}
	if !rep.Digital.Converged {
		t.Errorf("steady solve did not converge: residual %g", rep.FinalResidual)
	}
}

// TestWorkspacePoolConcurrentReuse is the serving-path contract of a pool
// of workers: repeated same-shaped solves from many goroutines, each
// holding its own Workspace for life the way a serve worker does, must be
// race-clean. Run under `go test -race ./internal/core/` (scripts/check.sh
// does). Each Workspace is reused across rounds by a new goroutine, so the
// test also covers a Workspace handed from one goroutine to the next.
func TestWorkspacePoolConcurrentReuse(t *testing.T) {
	const goroutines = 4
	const rounds = 3
	const solvesPerRound = 5
	fixtures := make([]*steadyFixture, goroutines)
	workspaces := make([]*Workspace, goroutines)
	for g := range fixtures {
		fixtures[g] = newSteadyFixture(t, int64(100+g))
		workspaces[g] = NewWorkspace()
	}
	for round := 0; round < rounds; round++ {
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				ws := workspaces[(g+round)%goroutines]
				for i := 0; i < solvesPerRound; i++ {
					fixtures[g].solve(t, ws)
				}
			}(g)
		}
		wg.Wait()
	}
}

// TestWorkspaceSteadyPathZeroAlloc pins the steady-state allocation contract
// a serve worker's Workspace exists for: once a Workspace has solved one
// problem of a given shape, further same-shaped solves through it allocate
// nothing. The
// assertion is skipped under -race (instrumentation perturbs allocation
// counts); `make bench` guards the same property on the benchmark path.
func TestWorkspaceSteadyPathZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counting is not meaningful under -race")
	}
	fix := newSteadyFixture(t, 7)
	ws := NewWorkspace()
	fix.solve(t, ws) // warm-up sizes every buffer
	allocs := testing.AllocsPerRun(10, func() {
		fix.solve(t, ws)
	})
	if allocs != 0 {
		t.Fatalf("steady path allocated %.1f allocs/op, want 0", allocs)
	}
}
