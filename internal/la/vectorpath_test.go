package la_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"hybridpde/internal/la"
	"hybridpde/internal/pde"
)

// bandRun is everything one factor-and-solve leaves behind.
type bandRun struct {
	store []float64
	piv   []int
	ops   int64
	x     []float64
}

// sameBits fails unless two runs hold the same bits everywhere.
func sameBits(t *testing.T, name string, goPath, vec bandRun) {
	t.Helper()
	for i := range goPath.store {
		if g, v := math.Float64bits(goPath.store[i]), math.Float64bits(vec.store[i]); g != v {
			t.Fatalf("%s: factor word %d is %#x on the Go path, %#x on the vector path", name, i, g, v)
		}
	}
	for i := range goPath.piv {
		if goPath.piv[i] != vec.piv[i] {
			t.Fatalf("%s: pivot %d is %d on the Go path, %d on the vector path", name, i, goPath.piv[i], vec.piv[i])
		}
	}
	if goPath.ops != vec.ops {
		t.Fatalf("%s: FactorOps %d on the Go path, %d on the vector path", name, goPath.ops, vec.ops)
	}
	for i := range goPath.x {
		if g, v := math.Float64bits(goPath.x[i]), math.Float64bits(vec.x[i]); g != v {
			t.Fatalf("%s: x[%d] is %#x on the Go path, %#x on the vector path", name, i, g, v)
		}
	}
}

// bothPaths runs f with the vector row update off, then on.
func bothPaths(t *testing.T, name string, f func() bandRun) {
	t.Helper()
	la.SetVectorRowUpdate(false)
	goPath := f()
	la.SetVectorRowUpdate(true)
	sameBits(t, name, goPath, f())
}

func luRun(t *testing.T, a *la.CSR, b []float64) bandRun {
	t.Helper()
	kl, ku := la.Bandwidths(a)
	var f la.BandLU
	if err := la.FactorBandLUInto(&f, a, kl, ku); err != nil {
		t.Fatal(err)
	}
	x := make([]float64, len(b))
	if err := f.Solve(x, b); err != nil {
		t.Fatal(err)
	}
	store, piv := la.BandLUStorage(&f)
	return bandRun{store: append([]float64(nil), store...), piv: append([]int(nil), piv...), ops: f.FactorOps, x: x}
}

func choleskyRun(t *testing.T, a *la.CSR, b []float64) bandRun {
	t.Helper()
	kl, ku := la.Bandwidths(a)
	f := la.NewBandCholesky(a.Rows(), kl+ku)
	if err := f.FactorNormalFrom(a, 1e-3); err != nil {
		t.Fatal(err)
	}
	x := append([]float64(nil), b...)
	if err := f.SolveInto(x); err != nil {
		t.Fatal(err)
	}
	return bandRun{store: append([]float64(nil), la.BandCholeskyStorage(f)...), x: x}
}

// TestVectorPathBitIdentical runs both band factors end to end with the
// AVX2 kernels off, the path of every other CPU and architecture, and on,
// and requires the same factor storage, pivots, FactorOps and solution
// bits: the band LU on diagonally dominant bands (four-pivot panels), on
// bands that interchange rows, hold ±0, ±Inf and NaNs, or are too thin
// (kl < 3) or short for a full panel (one step at a time), the band
// Cholesky's FactorNormalFrom and SolveInto, and both factors on 2-D
// Burgers Jacobians of 4×4 to 16×16 grids.
func TestVectorPathBitIdentical(t *testing.T) {
	if !la.SetVectorRowUpdate(false) {
		t.Skip("no AVX2 row update on this CPU or architecture")
	}
	defer la.SetVectorRowUpdate(true)
	rng := rand.New(rand.NewSource(35))
	vec := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		return v
	}
	for _, sz := range [][3]int{{60, 4, 4}, {128, 17, 17}, {200, 120, 40}, {9, 5, 2}, {40, 2, 6}, {33, 3, 0}} {
		n, kl, ku := sz[0], sz[1], sz[2]
		a, b := randBanded(rng, n, kl, ku), vec(n)
		bothPaths(t, fmt.Sprintf("band LU n=%d kl=%d ku=%d", n, kl, ku), func() bandRun { return luRun(t, a, b) })
		bothPaths(t, fmt.Sprintf("band Cholesky n=%d kl=%d ku=%d", n, kl, ku), func() bandRun { return choleskyRun(t, a, b) })
	}
	for _, mk := range []func(*rand.Rand) ([]*la.CSR, error){randomBands(40, false, false), randomBands(40, true, true)} {
		mats, _ := mk(rng)
		for i, a := range mats {
			b := vec(a.Rows())
			kl, ku := la.Bandwidths(a)
			if la.FactorBandLUInto(&la.BandLU{}, a, kl, ku) != nil {
				continue
			}
			bothPaths(t, fmt.Sprintf("random band LU %d", i), func() bandRun { return luRun(t, a, b) })
		}
	}
	for _, grid := range []int{4, 8, 12, 16} {
		p, err := pde.RandomBurgers(grid, 2, 3, rng)
		if err != nil {
			t.Fatal(err)
		}
		jac, err := p.JacobianCSR(p.InitialGuess())
		if err != nil {
			t.Fatal(err)
		}
		b := vec(p.Dim())
		bothPaths(t, fmt.Sprintf("Burgers %d×%d band LU", grid, grid), func() bandRun { return luRun(t, jac, b) })
		bothPaths(t, fmt.Sprintf("Burgers %d×%d band Cholesky", grid, grid), func() bandRun { return choleskyRun(t, jac, b) })
	}
}
