package nonlin

import (
	"math"
	"testing"

	"hybridpde/internal/la"
)

func TestHomotopyCoupledQuadratic(t *testing.T) {
	// Paper Figure 3: track the four roots (±1, ±1) of the simple system
	// to roots of the hard system. Every start must converge to a genuine
	// root of the hard system.
	hard := coupledQuadratic(1.0, -1.0)
	simple := SquareRootsSimple(2)
	roots := make(map[[2]int64]bool)
	for _, s := range [][]float64{{1, 1}, {1, -1}, {-1, 1}, {-1, -1}} {
		res, err := Homotopy(nil, simple, hard, s, HomotopyOptions{})
		if err != nil {
			t.Fatalf("start %v: %v", s, err)
		}
		f := make([]float64, 2)
		if err := hard.Eval(res.U, f); err != nil {
			t.Fatal(err)
		}
		if la.Norm2(f) > 1e-8 {
			t.Fatalf("start %v: homotopy endpoint is not a root, ‖F‖=%g", s, la.Norm2(f))
		}
		key := [2]int64{int64(math.Round(res.U[0] * 1e6)), int64(math.Round(res.U[1] * 1e6))}
		roots[key] = true
	}
	if len(roots) < 2 {
		t.Fatalf("expected at least two distinct roots from four homotopy paths, got %d", len(roots))
	}
}

func TestHomotopyPathRecorded(t *testing.T) {
	hard := coupledQuadratic(0.5, 0.5)
	res, err := Homotopy(nil, SquareRootsSimple(2), hard, []float64{1, 1}, HomotopyOptions{Steps: 20})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Path) < 21 { // λ=0 plus at least 20 increments
		t.Fatalf("path length %d, want ≥ 21", len(res.Path))
	}
	last := res.Path[len(res.Path)-1]
	if res.Path[0].Lambda != 0 || math.Abs(last.Lambda-1) > 1e-12 {
		t.Fatalf("path endpoints wrong: %v .. %v", res.Path[0], last)
	}
}

func TestHomotopyDimensionMismatch(t *testing.T) {
	if _, err := Homotopy(nil, SquareRootsSimple(3), coupledQuadratic(1, 1), []float64{1, 1, 1}, HomotopyOptions{}); err == nil {
		t.Fatal("expected dimension mismatch error")
	}
}

// TestNewtonHomotopyGlobal exercises the global Newton homotopy
// G(u,λ) = F(u) − (1−λ)F(u₀): the start u₀ is a root of G(·,0) by
// construction, so the homotopy needs no hand-built simple system. atan is
// the classic case where undamped Newton diverges from |u₀| ≳ 1.392; the
// homotopy must still reach the root.
func TestNewtonHomotopyGlobal(t *testing.T) {
	res, err := NewtonHomotopy(nil, atanScalar(), []float64{10}, HomotopyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || math.Abs(res.U[0]) > 1e-8 {
		t.Fatalf("homotopy missed the atan root: %+v", res)
	}
	if res.NewtonIters == 0 || res.LambdaSteps == 0 {
		t.Fatalf("homotopy accounting empty: %+v", res)
	}
}

func TestNewtonHomotopyCoupledQuadratic(t *testing.T) {
	hard := coupledQuadratic(1.0, -1.0)
	res, err := NewtonHomotopy(nil, hard, []float64{3, -3}, HomotopyOptions{Steps: 30})
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
}

func TestNewtonHomotopyDimensionMismatch(t *testing.T) {
	if _, err := NewtonHomotopy(nil, atanScalar(), []float64{1, 2}, HomotopyOptions{}); err == nil {
		t.Fatal("expected dimension mismatch error")
	}
}
