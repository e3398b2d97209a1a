package serve

import (
	"net/http"
	"testing"
)

// TestSolveProcsResponseIdentity pins the service-level determinism
// contract of Config.SolveProcs: the same request solved by a serial
// server and by servers with intra-solve parallelism returns bit-identical
// responses (residuals, iteration counts, model costs).
func TestSolveProcsResponseIdentity(t *testing.T) {
	reqs := []Request{
		{Problem: KindBurgersSteady, N: 6, Seed: 42},
		{Problem: KindBurgers2D, N: 5, Seed: 7, Analog: true},
		{Problem: KindBurgers1D, N: 48, Seed: 13},
	}
	solveAll := func(procs int) []Response {
		_, ts := newTestServer(t, Config{Workers: 1, SolveProcs: procs})
		out := make([]Response, len(reqs))
		for i, req := range reqs {
			code, resp, _ := postSolve(t, ts.URL, req)
			if code != http.StatusOK {
				t.Fatalf("procs=%d %s: status %d, error %q", procs, req.Problem, code, resp.Error)
			}
			out[i] = resp
		}
		return out
	}
	ref := solveAll(-1) // explicit serial
	for _, procs := range []int{2, 8} {
		got := solveAll(procs)
		for i := range ref {
			r, g := ref[i], got[i]
			if g.Residual != r.Residual || g.InitialResidual != r.InitialResidual ||
				g.SeedResidual != r.SeedResidual || g.ModelSeconds != r.ModelSeconds {
				t.Fatalf("procs=%d %s: response floats diverged:\n got %+v\nwant %+v", procs, reqs[i].Problem, g, r)
			}
			if g.Iterations != r.Iterations || g.Converged != r.Converged || g.Rung != r.Rung ||
				g.Degraded != r.Degraded || g.AnalogUsed != r.AnalogUsed {
				t.Fatalf("procs=%d %s: response metadata diverged:\n got %+v\nwant %+v", procs, reqs[i].Problem, g, r)
			}
		}
	}
}

// TestSolveProcsDefaultBudget checks the SolveProcs default: a solve runs
// serial unless the operator asks otherwise, whatever the worker count (the
// server scales by workers; see Config.SolveProcs).
func TestSolveProcsDefaultBudget(t *testing.T) {
	cases := []struct {
		workers, procs, want int
	}{
		{workers: 0, procs: 0, want: 1},  // unset ⇒ 1
		{workers: 1, procs: 0, want: 1},  // ... even when one worker has the machine
		{workers: 1, procs: -1, want: 1}, // negative ⇒ 1
		{workers: 1, procs: 3, want: 3},  // explicit setting wins
	}
	for _, tc := range cases {
		cfg := Config{Workers: tc.workers, SolveProcs: tc.procs}
		cfg.defaults()
		if cfg.SolveProcs != tc.want {
			t.Fatalf("workers=%d procs=%d: SolveProcs = %d, want %d",
				tc.workers, tc.procs, cfg.SolveProcs, tc.want)
		}
	}
}
