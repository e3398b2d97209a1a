package pde

import (
	"math"
	"math/rand"
	"testing"

	"hybridpde/internal/la"
	"hybridpde/internal/nonlin"
)

func TestBurgers1DValidation(t *testing.T) {
	if _, err := NewBurgers1D(0, 1); err == nil {
		t.Fatal("expected error for size 0")
	}
	if _, err := NewBurgers1D(4, 0); err == nil {
		t.Fatal("expected error for Re = 0")
	}
}

func TestBurgers1DJacobianMatchesFD(t *testing.T) {
	rng := rand.New(rand.NewSource(70))
	b, err := RandomBurgers1D(7, 0.8, 2.0, rng)
	if err != nil {
		t.Fatal(err)
	}
	w := make([]float64, 7)
	for i := range w {
		w[i] = 2 * (2*rng.Float64() - 1)
	}
	jac, err := b.JacobianCSR(w)
	if err != nil {
		t.Fatal(err)
	}
	analytic := jac.ToDense()
	fd := la.NewDense(7, 7)
	dense := nonlin.DenseAdapter{S: b}
	if err := nonlin.FiniteDifferenceJacobian(nonlin.FuncSystem{N: 7, F: dense.Eval}, w, fd); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 7; i++ {
		for j := 0; j < 7; j++ {
			if math.Abs(analytic.At(i, j)-fd.At(i, j)) > 2e-5 {
				t.Fatalf("1-D Jacobian mismatch at (%d,%d): %g vs %g", i, j, analytic.At(i, j), fd.At(i, j))
			}
		}
	}
	// Refresh path must match a fresh assembly.
	w2 := make([]float64, 7)
	for i := range w2 {
		w2[i] = rng.NormFloat64()
	}
	refreshed, err := b.JacobianCSR(w2)
	if err != nil {
		t.Fatal(err)
	}
	b2, _ := NewBurgers1D(7, 0.8)
	copy(b2.UPrev, b.UPrev)
	b2.Left, b2.Right = b.Left, b.Right
	fresh, err := b2.JacobianCSR(w2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 7; i++ {
		for j := 0; j < 7; j++ {
			if math.Abs(refreshed.At(i, j)-fresh.At(i, j)) > 1e-14 {
				t.Fatalf("refresh mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestBurgers1DNewtonSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	b, err := RandomBurgers1D(12, 1.0, 1.5, rng)
	if err != nil {
		t.Fatal(err)
	}
	root := make([]float64, 12)
	for i := range root {
		root[i] = 1.2 * (2*rng.Float64() - 1)
	}
	if err := b.SetRHSForRoot(root); err != nil {
		t.Fatal(err)
	}
	res, err := nonlin.NewtonSparse(nil, b, b.InitialGuess(), nonlin.NewtonOptions{Tol: 1e-11, AutoDamp: true, MaxIter: 200})
	if err != nil {
		t.Fatal(err)
	}
	f := make([]float64, 12)
	if err := b.Eval(res.U, f); err != nil {
		t.Fatal(err)
	}
	if la.Norm2(f) > 1e-9 {
		t.Fatalf("1-D Newton returned non-root: ‖F‖ = %g", la.Norm2(f))
	}
}

func TestBurgers1DTimeMarchDecay(t *testing.T) {
	b, err := NewBurgers1D(8, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range b.UPrev {
		b.UPrev[i] = math.Sin(float64(i+1) * 0.7)
	}
	initial := la.Norm2(b.UPrev)
	for s := 0; s < 3; s++ {
		res, err := nonlin.NewtonSparse(nil, b, b.InitialGuess(), nonlin.NewtonOptions{Tol: 1e-10, AutoDamp: true})
		if err != nil {
			t.Fatal(err)
		}
		if err := b.Advance(res.U); err != nil {
			t.Fatal(err)
		}
	}
	if la.Norm2(b.UPrev) >= initial {
		t.Fatalf("diffusive 1-D field should decay: %g → %g", initial, la.Norm2(b.UPrev))
	}
}
