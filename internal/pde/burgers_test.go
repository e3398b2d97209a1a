package pde

import (
	"math"
	"math/rand"
	"testing"

	"hybridpde/internal/la"
	"hybridpde/internal/nonlin"
)

// manufactureRoot sets the problem's RHS so that wTarget is an exact root.
func manufactureRoot(t *testing.T, b *Burgers, wTarget []float64) {
	t.Helper()
	la.Fill(b.RHS0, 0)
	la.Fill(b.RHS1, 0)
	f := make([]float64, b.Dim())
	if err := b.Eval(wTarget, f); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		for j := 0; j < b.N; j++ {
			k := b.idx(i, j)
			node := i*b.N + j
			b.RHS0[node] = f[k]
			b.RHS1[node] = f[k+1]
		}
	}
}

func TestBurgersValidation(t *testing.T) {
	if _, err := NewBurgers(0, 1); err == nil {
		t.Fatal("expected error for grid 0")
	}
	if _, err := NewBurgers(2, 0); err == nil {
		t.Fatal("expected error for Re = 0")
	}
	if _, err := NewBurgers(2, -1); err == nil {
		t.Fatal("expected error for negative Re")
	}
}

func TestBurgersManufacturedRootIsRoot(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	b, err := RandomBurgers(3, 1.0, 3.0, rng)
	if err != nil {
		t.Fatal(err)
	}
	wTarget := make([]float64, b.Dim())
	for i := range wTarget {
		wTarget[i] = 3 * (2*rng.Float64() - 1)
	}
	manufactureRoot(t, b, wTarget)
	f := make([]float64, b.Dim())
	if err := b.Eval(wTarget, f); err != nil {
		t.Fatal(err)
	}
	if la.Norm2(f) > 1e-12 {
		t.Fatalf("manufactured root has residual %g", la.Norm2(f))
	}
}

func TestBurgersJacobianMatchesFiniteDifferences(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for _, re := range []float64{0.05, 1.0, 5.0} {
		b, err := RandomBurgers(3, re, 2.0, rng)
		if err != nil {
			t.Fatal(err)
		}
		w := make([]float64, b.Dim())
		for i := range w {
			w[i] = 2 * (2*rng.Float64() - 1)
		}
		jac, err := b.JacobianCSR(w)
		if err != nil {
			t.Fatal(err)
		}
		analytic := jac.ToDense()
		fd := la.NewDense(b.Dim(), b.Dim())
		dense := nonlin.DenseAdapter{S: b}
		if err := nonlin.FiniteDifferenceJacobian(
			nonlin.FuncSystem{N: b.Dim(), F: dense.Eval}, w, fd); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < b.Dim(); i++ {
			for j := 0; j < b.Dim(); j++ {
				if math.Abs(analytic.At(i, j)-fd.At(i, j)) > 2e-5 {
					t.Fatalf("Re=%g: Jacobian mismatch at (%d,%d): analytic %g, FD %g",
						re, i, j, analytic.At(i, j), fd.At(i, j))
				}
			}
		}
	}
}

func TestBurgersNewtonSolvesManufacturedProblem(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	b, err := RandomBurgers(4, 0.5, 2.0, rng)
	if err != nil {
		t.Fatal(err)
	}
	wTarget := make([]float64, b.Dim())
	for i := range wTarget {
		wTarget[i] = 1.5 * (2*rng.Float64() - 1)
	}
	manufactureRoot(t, b, wTarget)
	res, err := new(nonlin.SparseSolver).Solve(nil, b, b.InitialGuess(), nonlin.NewtonOptions{Tol: 1e-11, AutoDamp: true, MaxIter: 200})
	if err != nil {
		t.Fatal(err)
	}
	f := make([]float64, b.Dim())
	if err := b.Eval(res.U, f); err != nil {
		t.Fatal(err)
	}
	if la.Norm2(f) > 1e-9 {
		t.Fatalf("Newton returned non-root: ‖F‖ = %g", la.Norm2(f))
	}
}

func TestBurgersJacobianDiagonalShrinksWithReynolds(t *testing.T) {
	// §6.1: "the elements on the diagonal of the Jacobian diminish with
	// higher Reynolds numbers".
	rng := rand.New(rand.NewSource(53))
	bLow, err := RandomBurgers(4, 0.01, 2.0, rng)
	if err != nil {
		t.Fatal(err)
	}
	bHigh, err := NewBurgers(4, 10)
	if err != nil {
		t.Fatal(err)
	}
	copy(bHigh.UPrev, bLow.UPrev)
	copy(bHigh.VPrev, bLow.VPrev)
	bHigh.BoundaryU, bHigh.BoundaryV = bLow.BoundaryU, bLow.BoundaryV
	w := bLow.InitialGuess()
	jLow, err := bLow.JacobianCSR(w)
	if err != nil {
		t.Fatal(err)
	}
	meanDiagLow := mean(jLow.Diagonal())
	jHigh, err := bHigh.JacobianCSR(w)
	if err != nil {
		t.Fatal(err)
	}
	meanDiagHigh := mean(jHigh.Diagonal())
	if meanDiagHigh >= meanDiagLow/10 {
		t.Fatalf("diagonal should shrink strongly with Re: Re=0.01 → %g, Re=10 → %g", meanDiagLow, meanDiagHigh)
	}
}

func mean(x []float64) float64 {
	s := 0.0
	for _, v := range x {
		s += math.Abs(v)
	}
	return s / float64(len(x))
}

func TestBurgersAdvanceRoundTrip(t *testing.T) {
	b, err := NewBurgers(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	w := make([]float64, b.Dim())
	for i := range w {
		w[i] = float64(i)
	}
	if err := b.Advance(w); err != nil {
		t.Fatal(err)
	}
	got := b.InitialGuess()
	for i := range w {
		if got[i] != w[i] {
			t.Fatalf("Advance/InitialGuess mismatch at %d", i)
		}
	}
}

func TestBurgersTimeMarchDiffusionDecays(t *testing.T) {
	// Pure diffusion sanity: with low Re (strong viscosity), zero forcing
	// and zero boundaries, the velocity magnitude must decay over steps.
	b, err := NewBurgers(4, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(54))
	for i := range b.UPrev {
		b.UPrev[i] = 0.5 * rng.NormFloat64()
		b.VPrev[i] = 0.5 * rng.NormFloat64()
	}
	initial := la.Norm2(b.UPrev)
	for step := 0; step < 3; step++ {
		res, err := new(nonlin.SparseSolver).Solve(nil, b, b.InitialGuess(), nonlin.NewtonOptions{Tol: 1e-10, AutoDamp: true})
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if err := b.Advance(res.U); err != nil {
			t.Fatal(err)
		}
	}
	if la.Norm2(b.UPrev) >= initial {
		t.Fatalf("diffusive field should decay: %g → %g", initial, la.Norm2(b.UPrev))
	}
}

func TestBurgersMaxField(t *testing.T) {
	b, err := NewBurgers(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	b.UPrev[0] = -7
	if m := b.MaxField(); m != 7 {
		t.Fatalf("MaxField = %g, want 7", m)
	}
	b.BoundaryV = func(i, j int) float64 { return 9 }
	if m := b.MaxField(); m != 9 {
		t.Fatalf("MaxField with boundary = %g, want 9", m)
	}
}

func TestBurgersDegree(t *testing.T) {
	b, _ := NewBurgers(2, 1)
	if b.PolynomialDegree() != 2 {
		t.Fatal("Burgers stencil must report quadratic degree")
	}
}

func TestSemilinearMatchesEquation2(t *testing.T) {
	s := Equation2(1.0, -1.0)
	f := make([]float64, 2)
	// (1, −1) is an exact root (verified by hand in §3.1 terms).
	if err := s.Eval([]float64{1, -1}, f); err != nil {
		t.Fatal(err)
	}
	if la.Norm2(f) > 1e-14 {
		t.Fatalf("(1,−1) should be an exact root, residual %g", la.Norm2(f))
	}
	jac := la.NewDense(2, 2)
	if err := s.Jacobian([]float64{0.3, 0.7}, jac); err != nil {
		t.Fatal(err)
	}
	if jac.At(0, 0) != 1.6 || jac.At(0, 1) != 1 || jac.At(1, 0) != -1 || jac.At(1, 1) != 2.4 {
		t.Fatalf("Equation 2 Jacobian wrong: %v", jac)
	}
	if s.PolynomialDegree() != 2 {
		t.Fatal("semilinear system must report degree 2")
	}
}

func TestSemilinearChainJacobianMatchesFD(t *testing.T) {
	s := NewSemilinear1D([]float64{0.5, -0.2, 0.8, 0.1})
	u := []float64{0.1, -0.4, 0.9, -0.6}
	jac := la.NewDense(4, 4)
	if err := s.Jacobian(u, jac); err != nil {
		t.Fatal(err)
	}
	fd := la.NewDense(4, 4)
	if err := nonlin.FiniteDifferenceJacobian(nonlin.FuncSystem{N: 4, F: s.Eval}, u, fd); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if math.Abs(jac.At(i, j)-fd.At(i, j)) > 1e-5 {
				t.Fatalf("chain Jacobian mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestCharacterShiftsWithReynolds(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	bLow, err := RandomBurgers(4, 0.01, 2.0, rng)
	if err != nil {
		t.Fatal(err)
	}
	cLow := CharacterFor(bLow)
	if cLow.Dominant != "second-order, diffusive (parabolic PDE)" {
		t.Fatalf("Re=0.01 should be diffusion-dominated, got %q", cLow.Dominant)
	}
	bHigh, err := NewBurgers(4, 10)
	if err != nil {
		t.Fatal(err)
	}
	copy(bHigh.UPrev, bLow.UPrev)
	copy(bHigh.VPrev, bLow.VPrev)
	bHigh.BoundaryU, bHigh.BoundaryV = bLow.BoundaryU, bLow.BoundaryV
	cHigh := CharacterFor(bHigh)
	if cHigh.Dominant != "first-order, advective (hyperbolic PDE)" {
		t.Fatalf("Re=10 should be advection-dominated, got %q", cHigh.Dominant)
	}
	if cHigh.Nonlinearity != "quasilinear" || cLow.Nonlinearity != "semilinear" {
		t.Fatalf("nonlinearity labels wrong: %q / %q", cHigh.Nonlinearity, cLow.Nonlinearity)
	}
}

// quarticField builds a Burgers problem whose u-field samples f(i) = i⁴,
// constant in j, including the ghost ring, with zero velocities elsewhere
// so advDiff reduces to the (negated) Laplacian.
func quarticBurgers(t *testing.T, n, order int) (*Burgers, []float64) {
	t.Helper()
	b, err := NewBurgers(n, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	b.Order = order
	quart := func(i int) float64 { return float64(i * i * i * i) }
	b.BoundaryU = func(i, j int) float64 { return quart(i) }
	b.BoundaryV = func(i, j int) float64 { return 0 }
	w := make([]float64, b.Dim())
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			w[2*(i*n+j)] = quart(i) // u = i⁴, v = 0
		}
	}
	return b, w
}

func TestFourthOrderStencilExactOnQuartic(t *testing.T) {
	// The 5-point D₂ is exact for x⁴; the 3-point D₂ errs by exactly 2.
	// With v = 0 and u = i⁴ the u-equation operator at interior nodes is
	// A = u·D₁ₓu − ∇²u (Re = 1); we isolate the Laplacian by comparing
	// both orders against the analytic values.
	n := 9
	i, j := 4, 4 // deep interior: order-4 stencil active
	exactD2 := 12.0 * float64(i*i)
	exactD1 := 4.0 * float64(i*i*i)
	uVal := float64(i * i * i * i)
	exactA := uVal*exactD1 - exactD2

	b4, w4 := quarticBurgers(t, n, 4)
	got4 := b4.advDiff(w4, 0, i, j)
	if math.Abs(got4-exactA) > 1e-9*math.Abs(exactA) {
		t.Fatalf("order-4 operator on quartic: got %g, want %g", got4, exactA)
	}

	b2, w2 := quarticBurgers(t, n, 2)
	got2 := b2.advDiff(w2, 0, i, j)
	// Order-2 errors on x⁴: D₁ under [−½,0,½] gives 4x³+4x (high by 4x),
	// D₂ under [1,−2,1] gives 12x²+2 (high by 2); A = u·D₁ − D₂.
	wantErr := uVal*(4*float64(i)) - 2.0
	if math.Abs((got2-exactA)-wantErr) > 1e-9*math.Abs(exactA) {
		t.Fatalf("order-2 operator error: got %g, want %g", got2-exactA, wantErr)
	}
}

func TestFourthOrderJacobianMatchesFiniteDifferences(t *testing.T) {
	rng := rand.New(rand.NewSource(56))
	b, err := RandomBurgers(6, 0.8, 1.5, rng)
	if err != nil {
		t.Fatal(err)
	}
	b.Order = 4
	w := make([]float64, b.Dim())
	for i := range w {
		w[i] = 1.5 * (2*rng.Float64() - 1)
	}
	jac, err := b.JacobianCSR(w)
	if err != nil {
		t.Fatal(err)
	}
	analytic := jac.ToDense()
	dense := nonlin.DenseAdapter{S: b}
	fd := la.NewDense(b.Dim(), b.Dim())
	if err := nonlin.FiniteDifferenceJacobian(
		nonlin.FuncSystem{N: b.Dim(), F: dense.Eval}, w, fd); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < b.Dim(); i++ {
		for j := 0; j < b.Dim(); j++ {
			if math.Abs(analytic.At(i, j)-fd.At(i, j)) > 3e-5 {
				t.Fatalf("order-4 Jacobian mismatch at (%d,%d): analytic %g, FD %g",
					i, j, analytic.At(i, j), fd.At(i, j))
			}
		}
	}
}

func TestFourthOrderNewtonSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(57))
	b, err := RandomBurgers(6, 0.8, 1.5, rng)
	if err != nil {
		t.Fatal(err)
	}
	b.Order = 4
	wTarget := make([]float64, b.Dim())
	for i := range wTarget {
		wTarget[i] = 1.2 * (2*rng.Float64() - 1)
	}
	if err := b.SetRHSForRoot(wTarget); err != nil {
		t.Fatal(err)
	}
	res, err := new(nonlin.SparseSolver).Solve(nil, b, b.InitialGuess(), nonlin.NewtonOptions{Tol: 1e-10, AutoDamp: true, MaxIter: 300})
	if err != nil {
		t.Fatal(err)
	}
	f := make([]float64, b.Dim())
	if err := b.Eval(res.U, f); err != nil {
		t.Fatal(err)
	}
	if la.Norm2(f) > 1e-8 {
		t.Fatalf("order-4 Newton returned non-root: ‖F‖ = %g", la.Norm2(f))
	}
}

func TestJacobianRefreshMatchesFreshAssembly(t *testing.T) {
	// Calling JacobianCSR twice with different states must equal a fresh
	// assembly (validates the zero-then-accumulate slot refresh).
	rng := rand.New(rand.NewSource(58))
	for _, order := range []int{2, 4} {
		b, err := RandomBurgers(6, 1.0, 2.0, rng)
		if err != nil {
			t.Fatal(err)
		}
		b.Order = order
		w1 := make([]float64, b.Dim())
		w2 := make([]float64, b.Dim())
		for i := range w1 {
			w1[i] = rng.NormFloat64()
			w2[i] = rng.NormFloat64()
		}
		if _, err := b.JacobianCSR(w1); err != nil {
			t.Fatal(err)
		}
		refreshed, err := b.JacobianCSR(w2) // second call: slot refresh path
		if err != nil {
			t.Fatal(err)
		}
		refreshedDense := refreshed.ToDense()
		fresh, err := RandomBurgers(6, 1.0, 2.0, rand.New(rand.NewSource(58)))
		if err != nil {
			t.Fatal(err)
		}
		_ = fresh
		// Fresh problem with identical discretisation parameters and state.
		b2, err := NewBurgers(6, 1.0)
		if err != nil {
			t.Fatal(err)
		}
		b2.Order = order
		b2.BoundaryU, b2.BoundaryV = b.BoundaryU, b.BoundaryV
		j2, err := b2.JacobianCSR(w2)
		if err != nil {
			t.Fatal(err)
		}
		j2d := j2.ToDense()
		for i := 0; i < b.Dim(); i++ {
			for j := 0; j < b.Dim(); j++ {
				if math.Abs(refreshedDense.At(i, j)-j2d.At(i, j)) > 1e-13 {
					t.Fatalf("order %d: refreshed Jacobian differs from fresh at (%d,%d)", order, i, j)
				}
			}
		}
	}
}
