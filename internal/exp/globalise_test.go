package exp

import (
	"context"
	"errors"
	"math"
	"testing"

	"hybridpde/internal/la"
	"hybridpde/internal/nonlin"
	"hybridpde/internal/pde"
)

// atanSystem is f(u) = atan(u), the classic case where undamped Newton
// overshoots and diverges for |u0| ≳ 1.392.
type atanSystem struct{ jac *la.CSR }

func newAtan() atanSystem {
	c := la.NewCOO(1, 1)
	c.Append(0, 0, 1)
	return atanSystem{jac: c.ToCSR()}
}

func (atanSystem) Dim() int { return 1 }

func (atanSystem) Eval(u, f []float64) error {
	f[0] = math.Atan(u[0])
	return nil
}

func (s atanSystem) JacobianCSR(u []float64) (*la.CSR, error) {
	s.jac.SetSlotValue(0, 1/(1+u[0]*u[0]))
	return s.jac, nil
}

func TestNewtonArmijoConvergesOnAtan(t *testing.T) {
	res, err := NewtonArmijo(context.Background(), newAtan(), []float64{3}, nonlin.NewtonOptions{Tol: 1e-12, MaxIter: 100})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.U[0]) > 1e-10 {
		t.Fatalf("root = %g, want 0", res.U[0])
	}
}

func TestTrustRegionConvergesOnAtan(t *testing.T) {
	// The case classical Newton fails: trust region converges globally.
	res, err := trustRegion(newAtan(), []float64{3}, 1e-12, 200)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.U[0]) > 1e-10 {
		t.Fatalf("root = %g, want 0", res.U[0])
	}
}

func TestTrustRegionMatchesNewtonNearRoot(t *testing.T) {
	// Close to a root the dogleg takes full Newton steps: iteration counts
	// should be comparably small.
	sys := pde.Equation2(1, -1)
	tr, err := trustRegion(sys, []float64{0.9, -0.9}, 1e-12, 200)
	if err != nil {
		t.Fatal(err)
	}
	nw, err := new(nonlin.SparseSolver).Solve(nil, sys, []float64{0.9, -0.9}, nonlin.NewtonOptions{Tol: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Iterations > nw.Iterations+3 {
		t.Fatalf("trust region (%d iters) should track Newton (%d) near the root", tr.Iterations, nw.Iterations)
	}
	f := make([]float64, 2)
	if err := sys.Eval(tr.U, f); err != nil {
		t.Fatal(err)
	}
	if la.Norm2(f) > 1e-10 {
		t.Fatalf("trust region returned non-root, ‖F‖=%g", la.Norm2(f))
	}
}

func TestTrustRegionCubicFromFar(t *testing.T) {
	res, err := trustRegion(cubicSystem(), []float64{5, 3}, 1e-10, 500)
	if err != nil {
		t.Fatal(err)
	}
	if classifyCubic(res.U, 1e-6) < 0 {
		t.Fatalf("did not land on a cubic root: %v", res.U)
	}
}

func TestTrustRegionSingularJacobianStart(t *testing.T) {
	// At z = 0 the cubic's Jacobian is singular and z = 0 is a stationary
	// point of the merit function (JᵀF = 0 there), so start slightly off:
	// the dogleg falls back to steepest descent and must escape.
	res, err := trustRegion(cubicSystem(), []float64{1e-3, 1e-3}, 1e-10, 500)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("trust region should escape the near-singular start")
	}
}

// TestTrustRegionDimensionMismatch holds both globalisers to the same
// contract as nonlin's Newton loop: a guess of the wrong length is an
// error, never an Eval on mismatched slices.
func TestTrustRegionDimensionMismatch(t *testing.T) {
	for name, solve := range map[string]func(u0 []float64) error{
		"trust region": func(u0 []float64) error {
			_, err := trustRegion(newAtan(), u0, 1e-10, 200)
			return err
		},
		"Armijo": func(u0 []float64) error {
			_, err := NewtonArmijo(context.Background(), newAtan(), u0, nonlin.NewtonOptions{Tol: 1e-12, MaxIter: 10})
			return err
		},
	} {
		if err := solve([]float64{1, 2}); !errors.Is(err, errGuessDim) {
			t.Errorf("%s: got %v, want the dimension error", name, err)
		}
	}
}

func TestDoglegStepGeometry(t *testing.T) {
	// Newton inside radius → take it exactly.
	dst := make([]float64, 2)
	grad := []float64{1, 0}
	newton := []float64{0.3, 0.1}
	doglegStep(dst, grad, 0.5, newton, true, 10)
	if dst[0] != 0.3 || dst[1] != 0.1 {
		t.Fatalf("should take the Newton step inside the region, got %v", dst)
	}
	// No Newton step → clipped steepest descent of length = radius.
	doglegStep(dst, grad, 2.0, nil, false, 0.5)
	if math.Abs(la.Norm2(dst)-0.5) > 1e-12 {
		t.Fatalf("clipped Cauchy step should have length 0.5, got %g", la.Norm2(dst))
	}
	// Dogleg blend: step length equals the radius.
	newton = []float64{-4, 0}
	doglegStep(dst, grad, 1.0, newton, true, 2)
	if math.Abs(la.Norm2(dst)-2) > 1e-9 {
		t.Fatalf("dogleg boundary step should have length 2, got %g", la.Norm2(dst))
	}
}
