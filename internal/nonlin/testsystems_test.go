package nonlin

import (
	"math"

	"hybridpde/internal/la"
)

// complexCubic is f(z) = z³ − 1 on the complex plane written as a 2-D real
// system in (re, im) — the tutorial problem of §2 (Equation 1, Figure 2).
func complexCubic() System {
	return FuncSystem{
		N: 2,
		F: func(u, f []float64) error {
			re, im := u[0], u[1]
			// z³ = (re + i·im)³
			f[0] = re*re*re - 3*re*im*im - 1
			f[1] = 3*re*re*im - im*im*im
			return nil
		},
		J: func(u []float64, jac *la.Dense) error {
			re, im := u[0], u[1]
			// d(z³)/dz = 3z²; as a real 2×2 block [[a,−b],[b,a]] with
			// a = 3(re²−im²), b = 6·re·im (Cauchy–Riemann structure).
			a := 3 * (re*re - im*im)
			b := 6 * re * im
			jac.Set(0, 0, a)
			jac.Set(0, 1, -b)
			jac.Set(1, 0, b)
			jac.Set(1, 1, a)
			return nil
		},
	}
}

// cubicRoots lists the three roots of z³ = 1.
var cubicRoots = [3][2]float64{
	{1, 0},
	{-0.5, math.Sqrt(3) / 2},
	{-0.5, -math.Sqrt(3) / 2},
}

func nearestCubicRoot(u []float64) int {
	best, bestD := 0, math.Inf(1)
	for k, r := range cubicRoots {
		d := math.Hypot(u[0]-r[0], u[1]-r[1])
		if d < bestD {
			best, bestD = k, d
		}
	}
	return best
}

// coupledQuadratic is Equation 2 of the paper:
//
//	ρ0² + ρ0 + ρ1 = rhs0
//	ρ1² + ρ1 − ρ0 = rhs1
//
// the system "arising from a one-dimensional semilinear PDE on two grid
// points" used throughout §3.
func coupledQuadratic(rhs0, rhs1 float64) System {
	return FuncSystem{
		N: 2,
		F: func(u, f []float64) error {
			f[0] = u[0]*u[0] + u[0] + u[1] - rhs0
			f[1] = u[1]*u[1] + u[1] - u[0] - rhs1
			return nil
		},
		J: func(u []float64, jac *la.Dense) error {
			jac.Set(0, 0, 2*u[0]+1)
			jac.Set(0, 1, 1)
			jac.Set(1, 0, -1)
			jac.Set(1, 1, 2*u[1]+1)
			return nil
		},
	}
}

// atanScalar is f(u) = atan(u), the classic example where undamped Newton
// overshoots and diverges for |u0| ≳ 1.392.
func atanScalar() System {
	return FuncSystem{
		N: 1,
		F: func(u, f []float64) error {
			f[0] = math.Atan(u[0])
			return nil
		},
		J: func(u []float64, jac *la.Dense) error {
			jac.Set(0, 0, 1/(1+u[0]*u[0]))
			return nil
		},
	}
}

// csrSystem serves a small dense test System through the SparseSystem
// interface, Jacobian stored in full, so the banded solvers can run it.
type csrSystem struct{ System }

func (s csrSystem) JacobianCSR(u []float64) (*la.CSR, error) {
	n := s.Dim()
	jac := la.NewDense(n, n)
	if err := s.Jacobian(u, jac); err != nil {
		return nil, err
	}
	b := la.NewCOO(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			b.Append(i, j, jac.At(i, j))
		}
	}
	return b.ToCSR(), nil
}
