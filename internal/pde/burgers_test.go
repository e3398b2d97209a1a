package pde

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"hybridpde/internal/la"
	"hybridpde/internal/nonlin"
	"hybridpde/internal/par"
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

// fdJacobian returns the forward-difference Jacobian of eval at u, the
// reference the analytic stencil Jacobians are checked against.
func fdJacobian(t *testing.T, eval func(u, f []float64) error, u []float64) *la.Dense {
	t.Helper()
	n := len(u)
	jac := la.NewDense(n, n)
	f0, fp := make([]float64, n), make([]float64, n)
	if err := eval(u, f0); err != nil {
		t.Fatal(err)
	}
	up := la.Copy(u)
	for j := range u {
		h := 1e-7 * (1 + math.Abs(u[j]))
		up[j] = u[j] + h
		if err := eval(up, fp); err != nil {
			t.Fatal(err)
		}
		up[j] = u[j]
		for i := range fp {
			jac.Set(i, j, (fp[i]-f0[i])/h)
		}
	}
	return jac
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
		fd := fdJacobian(t, b.Eval, w)
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

// TestRandomBurgersRingMatchesKeyedDraw pins the boundary ring against the
// keyed draw it replaced: the same draw order into a map keyed by ghost
// coordinate, last write winning at the doubly visited corners, and zero
// off the ring.
func TestRandomBurgersRingMatchesKeyedDraw(t *testing.T) {
	for n := 1; n <= 5; n++ {
		b, err := RandomBurgers(n, 1, 3.0, rand.New(rand.NewSource(int64(n))))
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(n)))
		u := func() float64 { return 3.0 * (2*rng.Float64() - 1) }
		for range 4 * n * n {
			u()
		}
		bu := map[[2]int]float64{}
		bv := map[[2]int]float64{}
		for i := -1; i <= n; i++ {
			for _, j := range []int{-1, n} {
				bu[[2]int{i, j}] = u()
				bv[[2]int{i, j}] = u()
				bu[[2]int{j, i}] = u()
				bv[[2]int{j, i}] = u()
			}
		}
		for i := -2; i <= n+1; i++ {
			for j := -2; j <= n+1; j++ {
				if got, want := b.BoundaryU(i, j), bu[[2]int{i, j}]; got != want {
					t.Fatalf("n=%d: BoundaryU(%d, %d) = %v, keyed draw %v", n, i, j, got, want)
				}
				if got, want := b.BoundaryV(i, j), bv[[2]int{i, j}]; got != want {
					t.Fatalf("n=%d: BoundaryV(%d, %d) = %v, keyed draw %v", n, i, j, got, want)
				}
			}
		}
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
	csr, err := s.JacobianCSR([]float64{0.3, 0.7})
	if err != nil {
		t.Fatal(err)
	}
	jac := csr.ToDense()
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
	csr, err := s.JacobianCSR(u)
	if err != nil {
		t.Fatal(err)
	}
	jac := csr.ToDense()
	fd := fdJacobian(t, s.Eval, u)
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
	fd := fdJacobian(t, b.Eval, w)
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

// advDiff is the reference operator the production kernel (nodeOp) must
// match bit for bit: A(c) = u·∂ₓc + v·∂ᵧc − (1/Re)·∇²c at node (i, j) on
// state w (nil for the previous time level), every read through stateAt and
// the weight tables walked over k = −2…+2 with structural zeros skipped.
func (b *Burgers) advDiff(w []float64, c, i, j int) float64 {
	u := b.stateAt(w, 0, i, j)
	v := b.stateAt(w, 1, i, j)
	d1, d2 := b.stencilAt(i, j)
	var dx, dy, lap float64
	for k := -2; k <= 2; k++ {
		w1, w2 := d1[k+2], d2[k+2]
		if w1 == 0 && w2 == 0 {
			continue
		}
		cx := b.stateAt(w, c, i+k, j)
		cy := b.stateAt(w, c, i, j+k)
		dx += float64(w1 * cx)
		dy += float64(w1 * cy)
		lap += float64(w2 * (cx + cy))
	}
	return float64(u*dx) + float64(v*dy) - lap/b.Re
}

// refEval is the reference Crank–Nicolson residual built on advDiff.
func refEval(b *Burgers, w []float64) []float64 {
	f := make([]float64, b.Dim())
	for i := 0; i < b.N; i++ {
		for j := 0; j < b.N; j++ {
			k := b.idx(i, j)
			node := i*b.N + j
			for c := 0; c < 2; c++ {
				newA := b.advDiff(w, c, i, j)
				oldA := b.advDiff(nil, c, i, j)
				rhs, prev := b.RHS0[node], b.UPrev[node]
				if c == 1 {
					rhs, prev = b.RHS1[node], b.VPrev[node]
				}
				f[k+c] = w[k+c] - prev + float64(0.5*(newA+oldA)) - rhs
			}
		}
	}
	return f
}

// refSteadyEval is the reference steady residual A(w) − RHS.
func refSteadyEval(b *Burgers, w []float64) []float64 {
	f := make([]float64, b.Dim())
	for i := 0; i < b.N; i++ {
		for j := 0; j < b.N; j++ {
			k := b.idx(i, j)
			node := i*b.N + j
			f[k] = b.advDiff(w, 0, i, j) - b.RHS0[node]
			f[k+1] = b.advDiff(w, 1, i, j) - b.RHS1[node]
		}
	}
	return f
}

// firstBitDiff returns the first index where got and want differ in their
// bits (math.Float64bits, so −0 ≠ +0), or −1 when they are identical. Any
// two NaNs match: the NaN payload depends on operand order within a
// commutative add, which the compiler may swap.
func firstBitDiff(got, want []float64) int {
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) && !(math.IsNaN(got[i]) && math.IsNaN(want[i])) {
			return i
		}
	}
	return -1
}

// randomEvalCase draws a RandomBurgers problem (non-zero boundary ring) and
// a state w from seed. About one value in eight of w, UPrev and VPrev is a
// signed zero and one in 64 is ±Inf, so a kernel that drops a 0·c centre
// term (0·Inf is NaN) or reorders a sum shows up in the residual.
func randomEvalCase(t testing.TB, n, order int, seed int64) (*Burgers, []float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b, err := RandomBurgers(n, 0.25+40*rng.Float64(), 3.0, rng)
	if err != nil {
		t.Fatal(err)
	}
	b.Order = order
	w := make([]float64, b.Dim())
	for i := range w {
		w[i] = 2 * rng.NormFloat64()
	}
	for _, x := range [][]float64{w, b.UPrev, b.VPrev} {
		for i := range x {
			switch rng.Intn(64) {
			case 0, 1, 2, 3:
				x[i] = 0
			case 4, 5, 6, 7:
				x[i] = math.Copysign(0, -1)
			case 8:
				x[i] = math.Inf(1 - 2*rng.Intn(2))
			}
		}
	}
	return b, w
}

// checkEvalMatchesReference asserts Burgers.Eval and BurgersSteady.Eval
// equal refEval and refSteadyEval bit for bit, with pool p attached.
func checkEvalMatchesReference(t *testing.T, b *Burgers, w []float64, p *par.Pool) {
	t.Helper()
	b.SetPool(p)
	f := make([]float64, b.Dim())
	if err := b.Eval(w, f); err != nil {
		t.Fatal(err)
	}
	if i := firstBitDiff(f, refEval(b, w)); i >= 0 {
		t.Fatalf("Burgers.Eval f[%d] = %v, reference %v", i, f[i], refEval(b, w)[i])
	}
	if err := NewBurgersSteady(b).Eval(w, f); err != nil {
		t.Fatal(err)
	}
	if i := firstBitDiff(f, refSteadyEval(b, w)); i >= 0 {
		t.Fatalf("BurgersSteady.Eval f[%d] = %v, reference %v", i, f[i], refSteadyEval(b, w)[i])
	}
}

// TestBurgersEvalMatchesReference pins the strided kernel to the stateAt
// reference bit for bit over grid sizes with no interior (1, 2), a single
// interior node (3), order-4 interiors (5 and up) and, at 24, a pool that
// really splits the rows (below that evalGrain keeps one chunk).
func TestBurgersEvalMatchesReference(t *testing.T) {
	p := par.NewPool(4)
	defer p.Close()
	for _, n := range []int{1, 2, 3, 4, 5, 8, 12, 24} {
		for _, order := range []int{2, 4} {
			for _, pool := range []*par.Pool{nil, p} {
				t.Run(fmt.Sprintf("n=%d/order=%d/procs=%d", n, order, pool.Procs()), func(t *testing.T) {
					b, w := randomEvalCase(t, n, order, int64(100*n+order))
					checkEvalMatchesReference(t, b, w, pool)
				})
			}
		}
	}
}

func FuzzBurgersEval(f *testing.F) {
	f.Add(uint8(0), false, int64(1))
	f.Add(uint8(2), true, int64(2))
	f.Add(uint8(5), true, int64(3))
	f.Fuzz(func(t *testing.T, n uint8, order4 bool, seed int64) {
		order := 2
		if order4 {
			order = 4
		}
		b, w := randomEvalCase(t, 1+int(n%6), order, seed)
		checkEvalMatchesReference(t, b, w, nil)
	})
}

// TestBurgersEvalConcurrent pins Eval's reentrancy contract: concurrent
// calls on one problem with distinct w and f (as problem.Sub's tile solves
// make) each return their serial result. Run under -race it also catches
// any per-problem scratch the kernel might write.
func TestBurgersEvalConcurrent(t *testing.T) {
	const goroutines = 8
	for _, order := range []int{2, 4} {
		b, _ := randomEvalCase(t, 7, order, int64(order))
		s := NewBurgersSteady(b)
		rng := rand.New(rand.NewSource(9))
		ws := make([][]float64, goroutines)
		want := make([][2][]float64, goroutines)
		for g := range ws {
			ws[g] = make([]float64, b.Dim())
			for i := range ws[g] {
				ws[g][i] = rng.NormFloat64()
			}
			want[g] = [2][]float64{make([]float64, b.Dim()), make([]float64, b.Dim())}
			if err := b.Eval(ws[g], want[g][0]); err != nil {
				t.Fatal(err)
			}
			if err := s.Eval(ws[g], want[g][1]); err != nil {
				t.Fatal(err)
			}
		}
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				f := make([]float64, b.Dim())
				for rep := 0; rep < 20; rep++ {
					if err := b.Eval(ws[g], f); err != nil {
						t.Error(err)
						return
					}
					if i := firstBitDiff(f, want[g][0]); i >= 0 {
						t.Errorf("order %d goroutine %d: concurrent Burgers.Eval f[%d] = %v, serial %v", order, g, i, f[i], want[g][0][i])
						return
					}
					if err := s.Eval(ws[g], f); err != nil {
						t.Error(err)
						return
					}
					if i := firstBitDiff(f, want[g][1]); i >= 0 {
						t.Errorf("order %d goroutine %d: concurrent BurgersSteady.Eval f[%d] = %v, serial %v", order, g, i, f[i], want[g][1][i])
						return
					}
				}
			}(g)
		}
		wg.Wait()
	}
}

func BenchmarkBurgersEval(b *testing.B) {
	for _, n := range []int{8, 12, 16} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			p, err := RandomBurgers(n, 1, 3.0, rng)
			if err != nil {
				b.Fatal(err)
			}
			w := p.InitialGuess()
			f := make([]float64, p.Dim())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := p.Eval(w, f); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
