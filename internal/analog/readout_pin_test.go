package analog

import (
	"context"
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"hybridpde/internal/la"
	"hybridpde/internal/pde"
)

// readoutSweep runs the 60 fabric solves the readout pin covers — n ∈ {4,
// 8}, 30 seeds each, Reynolds number 1…4, a fresh board per problem, every
// calibrated non-ideality on — and hands each finished run to visit.
func readoutSweep(t *testing.T, visit func(n, s int, acc *Accelerator, b *pde.Burgers, sol Solution)) {
	t.Helper()
	for _, n := range []int{4, 8} {
		for s := 0; s < 30; s++ {
			b, err := pde.RandomBurgers(n, float64(1+s%4), 1, rand.New(rand.NewSource(int64(100+s))))
			if err != nil {
				t.Fatal(err)
			}
			acc, err := NewScaled(n, int64(s))
			if err != nil {
				t.Fatal(err)
			}
			sol, err := acc.SolveSparse(context.Background(), b, b.InitialGuess(), SolveOptions{DynamicRange: readoutRange})
			if err != nil {
				t.Fatalf("n=%d s=%d: %v", n, s, err)
			}
			visit(n, s, acc, b, sol)
		}
	}
}

// readoutRange is the sweep's DynamicRange.
const readoutRange = 1.5

// TestSolveSparseReadoutPinned holds what a seeded solve consumes from the
// fabric — the ADC readout U and the settled flag — to golden bits over the
// readout sweep. Unlike TestFabricRunBitsPinned it leaves out the raw
// integrator state W, the settle time and the residual, so an integrator or
// factor change that moves only their last bits keeps it green, while any
// change the readout's quantisation does not absorb fails it. It was
// re-recorded once on purpose, when the quotient loop began to hold its
// factor across evaluations behind a one-step refinement check: one of the
// 4,800 values (n=4, s=9, value 29) moved by one ADC LSB, 0.363 → 0.352,
// and no Converged flag changed. Its equilibrium lies 1e-4 LSB from the
// rounding boundary, inside TestReadoutMatchesEquilibrium's guard.
func TestSolveSparseReadoutPinned(t *testing.T) {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	readoutSweep(t, func(_, _ int, _ *Accelerator, _ *pde.Burgers, sol Solution) {
		for _, v := range sol.U {
			put(math.Float64bits(v))
		}
		if sol.Converged {
			put(1)
		} else {
			put(0)
		}
	})
	const want uint64 = 0xb7878dc7e70bcdfc
	if got := h.Sum64(); got != want {
		t.Fatalf("readout checksum %#016x, want %#016x", got, want)
	}
}

// TestQuotientLoopReusesItsFactor runs the n = 8 half of the readout sweep
// and checks the quotient loop's factor reuse at every evaluation: the δ it
// hands the integrator stays within 1 % of the exact (JᵀJ + εI)⁻¹Jᵀg at the
// same state (0.17 % at worst), and a seed costs ≈15 factorisations and
// ≈128 evaluations where a factor per evaluation cost ≈123 of each.
func TestQuotientLoopReusesItsFactor(t *testing.T) {
	var factors, evals, runs int
	worst := 0.0
	for s := 0; s < 30; s++ {
		b, err := pde.RandomBurgers(8, float64(1+s%4), 1, rand.New(rand.NewSource(int64(100+s))))
		if err != nil {
			t.Fatal(err)
		}
		acc, err := NewScaled(8, int64(s))
		if err != nil {
			t.Fatal(err)
		}
		ss, err := newScaledSparse(b, readoutRange)
		if err != nil {
			t.Fatal(err)
		}
		linearize := func(_ float64, w, g []float64) (*la.CSR, error) {
			if err := ss.Eval(w, g); err != nil {
				return nil, err
			}
			return ss.JacobianCSR(w)
		}
		q := bandedLoop(ss.Dim(), linearize)
		exact, diff := make([]float64, ss.Dim()), make([]float64, ss.Dim())
		loop := func(tm float64, w []float64, cells []*NewtonCell, delta []float64) error {
			evals++
			if err := q.solve(tm, w, cells, delta); err != nil {
				return err
			}
			if err := bandedLoop(ss.Dim(), linearize).solve(tm, w, cells, exact); err != nil {
				return err
			}
			la.Sub(diff, delta, exact)
			if d := la.Norm2(diff) / la.Norm2(exact); d > worst {
				worst = d
			}
			return nil
		}
		m := fabricMode{loop: loop, start: "initial guess", evolution: "circuit"}
		if _, err := acc.run(context.Background(), ss, b.InitialGuess(), SolveOptions{DynamicRange: readoutRange}, m); err != nil {
			t.Fatalf("s=%d: %v", s, err)
		}
		factors += q.factors
		runs++
	}
	perFactors, perEvals := float64(factors)/float64(runs), float64(evals)/float64(runs)
	t.Logf("per n=8 seed: %.1f factorisations, %.1f evaluations; worst relative δ error %.3g", perFactors, perEvals, worst)
	if worst > 0.01 {
		t.Errorf("the reused factor's δ is %.3g off the exact quotient, want ≤ 1 %%", worst)
	}
	if perFactors > 25 || perEvals > 140 {
		t.Errorf("per seed %.1f factorisations and %.1f evaluations; want ≈15 and ≈128", perFactors, perEvals)
	}
}
