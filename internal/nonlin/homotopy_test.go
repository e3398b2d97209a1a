package nonlin

import (
	"math"
	"testing"

	"hybridpde/internal/la"
)

// TestNewtonHomotopyGlobal exercises the global Newton homotopy
// G(u,λ) = F(u) − (1−λ)F(u₀): the start u₀ is a root of G(·,0) by
// construction, so the homotopy needs no hand-built simple system. atan is
// the classic case where undamped Newton diverges from |u₀| ≳ 1.392; the
// homotopy must still reach the root.
func TestNewtonHomotopyGlobal(t *testing.T) {
	res, err := NewtonHomotopy(nil, atanScalar(), []float64{10}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || math.Abs(res.U[0]) > 1e-8 {
		t.Fatalf("homotopy missed the atan root: %+v", res)
	}
}

func TestNewtonHomotopyCoupledQuadratic(t *testing.T) {
	hard := coupledQuadratic(1.0, -1.0)
	res, err := NewtonHomotopy(nil, hard, []float64{3, -3}, 1)
	if err != nil {
		t.Fatal(err)
	}
	f := make([]float64, 2)
	if err := hard.Eval(res.U, f); err != nil {
		t.Fatal(err)
	}
	if la.Norm2(f) > 1e-8 {
		t.Fatalf("endpoint is not a root of the hard system: ‖F‖=%g", la.Norm2(f))
	}
	// Every λ step pays one tangent solve on top of its corrector's.
	if res.Iterations == 0 || res.LinearSolves < res.Iterations+homotopySteps ||
		res.Refactorizations != res.LinearSolves || res.FactorOps <= 0 {
		t.Fatalf("homotopy work counts incomplete: %+v", res)
	}
}

func TestNewtonHomotopyDimensionMismatch(t *testing.T) {
	if _, err := NewtonHomotopy(nil, atanScalar(), []float64{1, 2}, 1); err == nil {
		t.Fatal("expected dimension mismatch error")
	}
}

// TestNewtonHomotopyHopsFold tracks an Equation-2 path that folds: at
// rhs = (−2, 2) the root dragged from u₀ = (−3, 1) meets another and leaves
// the real plane before λ = 1, so the corrector fails at every step length
// there. Only basinHop's restart reaches the root near (−0.639, −1.769).
func TestNewtonHomotopyHopsFold(t *testing.T) {
	hard := coupledQuadratic(-2, 2)
	res, err := NewtonHomotopy(nil, hard, []float64{-3, 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	f := make([]float64, 2)
	if err := hard.Eval(res.U, f); err != nil {
		t.Fatal(err)
	}
	if la.Norm2(f) > 1e-9 || math.Abs(res.U[0]+0.639) > 1e-3 || math.Abs(res.U[1]+1.769) > 1e-3 {
		t.Fatalf("fold hop missed the root: u=%v, ‖F‖=%g", res.U, la.Norm2(f))
	}
}
