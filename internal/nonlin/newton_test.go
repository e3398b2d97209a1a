package nonlin

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"hybridpde/internal/la"
)

func TestNewtonScalarCubic(t *testing.T) {
	sys := FuncSystem{
		N: 1,
		F: func(u, f []float64) error { f[0] = u[0]*u[0]*u[0] - 1; return nil },
		J: func(u []float64, jac *la.Dense) error { jac.Set(0, 0, 3*u[0]*u[0]); return nil },
	}
	res, err := Newton(nil, sys, []float64{2}, NewtonOptions{Tol: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.U[0]-1) > 1e-10 {
		t.Fatalf("root = %g, want 1", res.U[0])
	}
	if res.Iterations > 12 {
		t.Fatalf("quadratic convergence should need few iterations, got %d", res.Iterations)
	}
}

func TestNewtonComplexCubicAllRoots(t *testing.T) {
	sys := complexCubic()
	starts := [][]float64{{2, 0.1}, {-1, 1}, {-1, -1}}
	wantRoot := []int{0, 1, 2}
	for k, s := range starts {
		res, err := Newton(nil, sys, s, NewtonOptions{Tol: 1e-12})
		if err != nil {
			t.Fatalf("start %v: %v", s, err)
		}
		if got := nearestCubicRoot(res.U); got != wantRoot[k] {
			t.Fatalf("start %v converged to root %d, want %d (u=%v)", s, got, wantRoot[k], res.U)
		}
		if res.Residual > 1e-10 {
			t.Fatalf("residual %g too large", res.Residual)
		}
	}
}

func TestNewtonQuadraticConvergenceRate(t *testing.T) {
	// Track the residual sequence; asymptotically r_{k+1} ≈ C·r_k².
	sys := complexCubic()
	u := []float64{1.3, 0.4}
	f := make([]float64, 2)
	jac := la.NewDense(2, 2)
	var resids []float64
	for i := 0; i < 8; i++ {
		if err := sys.Eval(u, f); err != nil {
			t.Fatal(err)
		}
		resids = append(resids, la.Norm2(f))
		if err := sys.Jacobian(u, jac); err != nil {
			t.Fatal(err)
		}
		lu, err := la.FactorLU(jac)
		if err != nil {
			t.Fatal(err)
		}
		delta := make([]float64, 2)
		if err := lu.Solve(delta, f); err != nil {
			t.Fatal(err)
		}
		la.Axpy(-1, delta, u)
	}
	// Find two consecutive small residuals and verify superlinear drop.
	for i := 1; i < len(resids); i++ {
		if resids[i-1] < 1e-2 && resids[i-1] > 1e-14 {
			if resids[i] > resids[i-1]*resids[i-1]*100 {
				t.Fatalf("not quadratic: r=%v", resids)
			}
			return
		}
	}
	t.Fatalf("never entered quadratic regime: %v", resids)
}

func TestClassicalNewtonDivergesOnAtan(t *testing.T) {
	_, err := Newton(nil, atanScalar(), []float64{3}, NewtonOptions{Tol: 1e-12, MaxIter: 50})
	if err == nil {
		t.Fatal("classical Newton should fail from u0=3 on atan")
	}
}

func TestAutoDampedNewtonConvergesOnAtan(t *testing.T) {
	res, err := Newton(nil, atanScalar(), []float64{3}, NewtonOptions{Tol: 1e-12, MaxIter: 300, AutoDamp: true})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.U[0]) > 1e-10 {
		t.Fatalf("root = %g, want 0", res.U[0])
	}
	if res.DampingUsed >= 1 {
		t.Fatalf("damping schedule should have reduced h, used %g", res.DampingUsed)
	}
	if res.Attempts < 2 {
		t.Fatalf("expected multiple damping attempts, got %d", res.Attempts)
	}
	if res.TotalIters <= res.Iterations {
		t.Fatalf("total iterations (%d) should exceed counted iterations (%d)", res.TotalIters, res.Iterations)
	}
}

func TestNewtonArmijoConvergesOnAtan(t *testing.T) {
	res, err := NewtonArmijo(nil, atanScalar(), []float64{3}, NewtonOptions{Tol: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.U[0]) > 1e-10 {
		t.Fatalf("root = %g, want 0", res.U[0])
	}
}

func TestNewtonSingularJacobianReported(t *testing.T) {
	// A rank-deficient Jacobian everywhere, with F ≠ 0 at the start.
	sys := FuncSystem{
		N: 2,
		F: func(u, f []float64) error {
			f[0] = u[0] + u[1] - 1
			f[1] = 2*u[0] + 2*u[1] - 5
			return nil
		},
		J: func(u []float64, jac *la.Dense) error {
			jac.Set(0, 0, 1)
			jac.Set(0, 1, 1)
			jac.Set(1, 0, 2)
			jac.Set(1, 1, 2)
			return nil
		},
	}
	_, err := Newton(nil, sys, []float64{0, 0}, NewtonOptions{Tol: 1e-12})
	var jse *JacobianSingularError
	if !errors.As(err, &jse) {
		t.Fatalf("expected JacobianSingularError, got %v", err)
	}
	if !errors.Is(err, la.ErrSingular) {
		t.Fatal("JacobianSingularError should unwrap to la.ErrSingular")
	}
}

func TestFiniteDifferenceJacobianMatchesAnalytic(t *testing.T) {
	sys := coupledQuadratic(1, -1)
	u := []float64{0.7, -0.3}
	analytic := la.NewDense(2, 2)
	if err := sys.Jacobian(u, analytic); err != nil {
		t.Fatal(err)
	}
	fd := la.NewDense(2, 2)
	noJ := FuncSystem{N: 2, F: sys.(FuncSystem).F}
	if err := noJ.Jacobian(u, fd); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if math.Abs(analytic.At(i, j)-fd.At(i, j)) > 1e-5 {
				t.Fatalf("FD Jacobian mismatch at (%d,%d): %g vs %g", i, j, fd.At(i, j), analytic.At(i, j))
			}
		}
	}
}

// sparseQuadratic is a SparseSystem: F_i = u_i² + 2u_i − c_i − coupling.
type sparseQuadratic struct {
	n   int
	rhs []float64
}

func (s *sparseQuadratic) Dim() int { return s.n }

func (s *sparseQuadratic) Eval(u, f []float64) error {
	for i := 0; i < s.n; i++ {
		f[i] = u[i]*u[i] + 2*u[i] - s.rhs[i]
		if i > 0 {
			f[i] -= 0.3 * u[i-1]
		}
		if i < s.n-1 {
			f[i] += 0.2 * u[i+1]
		}
	}
	return nil
}

func (s *sparseQuadratic) JacobianCSR(u []float64) (*la.CSR, error) {
	b := la.NewCOO(s.n, s.n)
	for i := 0; i < s.n; i++ {
		b.Append(i, i, 2*u[i]+2)
		if i > 0 {
			b.Append(i, i-1, -0.3)
		}
		if i < s.n-1 {
			b.Append(i, i+1, 0.2)
		}
	}
	return b.ToCSR(), nil
}

func TestNewtonSparseMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	n := 24
	rhs := make([]float64, n)
	for i := range rhs {
		rhs[i] = rng.Float64()
	}
	sys := &sparseQuadratic{n: n, rhs: rhs}
	u0 := make([]float64, n)
	resS, err := NewtonSparse(nil, sys, u0, NewtonOptions{Tol: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	resD, err := Newton(nil, DenseAdapter{S: sys}, u0, NewtonOptions{Tol: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if math.Abs(resS.U[i]-resD.U[i]) > 1e-9 {
			t.Fatalf("sparse/dense mismatch at %d: %g vs %g", i, resS.U[i], resD.U[i])
		}
	}
	if resS.FactorOps <= 0 {
		t.Fatal("sparse path should report factorization work")
	}
}

func TestNewtonPropertyRandomQuadratics(t *testing.T) {
	// For diagonally dominant linear parts with a small quadratic
	// perturbation, Newton from zero must converge and the returned point
	// must actually be a root.
	rng := rand.New(rand.NewSource(33))
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(6)
		lin := la.NewDense(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				lin.Set(i, j, 0.3*rng.NormFloat64())
			}
			lin.Add(i, i, 4)
		}
		q := make([]float64, n)
		c := make([]float64, n)
		for i := range q {
			q[i] = 0.2 * rng.NormFloat64()
			c[i] = rng.NormFloat64()
		}
		sys := FuncSystem{
			N: n,
			F: func(u, f []float64) error {
				lin.MulVec(f, u)
				for i := range f {
					f[i] += q[i]*u[i]*u[i] - c[i]
				}
				return nil
			},
			J: func(u []float64, jac *la.Dense) error {
				for i := 0; i < n; i++ {
					for j := 0; j < n; j++ {
						jac.Set(i, j, lin.At(i, j))
					}
					jac.Add(i, i, 2*q[i]*u[i])
				}
				return nil
			},
		}
		res, err := Newton(nil, sys, make([]float64, n), NewtonOptions{Tol: 1e-11})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		f := make([]float64, n)
		if err := sys.Eval(res.U, f); err != nil {
			t.Fatal(err)
		}
		if la.Norm2(f) > 1e-9 {
			t.Fatalf("trial %d: returned non-root, ‖F‖=%g", trial, la.Norm2(f))
		}
	}
}
