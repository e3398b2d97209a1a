package la_test

import (
	"fmt"
	"math/rand"
	"testing"

	"hybridpde/internal/la"
	"hybridpde/internal/pde"
)

// TestBandCholeskyMatchesBandLU is the differential check of the analog
// quotient loop's factor on the matrices it meets: for 2-D Burgers
// Jacobians J on 4×4, 8×8 and 16×16 grids, the band Cholesky of JᵀJ + εI
// and the general band LU of the same matrix, assembled explicitly and
// factored with FactorFrom, solve (JᵀJ + εI)·x = Jᵀg to 1e-12 relative,
// and the Cholesky factor and solve hold the scalar reference's bits.
func TestBandCholeskyMatchesBandLU(t *testing.T) {
	const eps = 1e-3 // the quotient loop's gain (analog.QuotientLoopEpsilon)
	rng := rand.New(rand.NewSource(30))
	for _, n := range []int{4, 8, 16} {
		for re := 1; re <= 4; re++ {
			name := fmt.Sprintf("n=%d Re=%d", n, re)
			b, err := pde.RandomBurgers(n, float64(re), 3, rng)
			if err != nil {
				t.Fatal(err)
			}
			jac, err := b.JacobianCSR(b.InitialGuess())
			if err != nil {
				t.Fatal(err)
			}
			dim := b.Dim()
			kl, ku := la.Bandwidths(jac)
			ch := la.NewBandCholesky(dim, kl+ku)
			if err := ch.FactorNormalFrom(jac, eps); err != nil {
				t.Fatalf("%s: Cholesky: %v", name, err)
			}
			lu := la.NewBandLUWorkspace(dim, kl+ku, kl+ku)
			if err := lu.FactorFrom(la.NormalEquations(jac, eps)); err != nil {
				t.Fatalf("%s: band LU: %v", name, err)
			}
			g := make([]float64, dim)
			for i := range g {
				g[i] = rng.NormFloat64()
			}
			x, xr := make([]float64, dim), make([]float64, dim)
			jac.MulTransVec(x, g)
			la.CheckCholeskyRef(t, name, jac, eps, x)
			copy(xr, x)
			if err := ch.SolveInto(x); err != nil {
				t.Fatal(err)
			}
			if err := lu.SolveInto(xr); err != nil {
				t.Fatal(err)
			}
			diff := make([]float64, dim)
			for i := range diff {
				diff[i] = x[i] - xr[i]
			}
			if rel := la.Norm2(diff) / la.Norm2(xr); rel > 1e-12 {
				t.Fatalf("%s: Cholesky and LU solutions differ by %.3g relative", name, rel)
			}
		}
	}
}

// TestBandCholeskyFabricEvalZeroAlloc pins the quotient loop's per-
// evaluation cost to no allocation: once its workspace exists, one fabric
// evaluation's FactorNormalFrom and SolveInto on an 8×8 Burgers Jacobian
// allocate nothing.
func TestBandCholeskyFabricEvalZeroAlloc(t *testing.T) {
	b, err := pde.RandomBurgers(8, 2, 3, rand.New(rand.NewSource(35)))
	if err != nil {
		t.Fatal(err)
	}
	jac, err := b.JacobianCSR(b.InitialGuess())
	if err != nil {
		t.Fatal(err)
	}
	kl, ku := la.Bandwidths(jac)
	ch := la.NewBandCholesky(b.Dim(), kl+ku)
	x := make([]float64, b.Dim())
	allocs := testing.AllocsPerRun(20, func() {
		if err := ch.FactorNormalFrom(jac, 1e-3); err != nil {
			t.Fatal(err)
		}
		for i := range x {
			x[i] = float64(i%7) - 3
		}
		if err := ch.SolveInto(x); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("FactorNormalFrom + SolveInto allocate %v per evaluation, want 0", allocs)
	}
}
