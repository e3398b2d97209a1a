package nonlin

import (
	"math"

	"hybridpde/internal/la"
)

// denseSystem is a small test system given by closures: F, and J written
// row-major into an n×n slice. It serves J in full CSR storage, so the
// banded solvers run it like any stencil system.
type denseSystem struct {
	n int
	f func(u, f []float64)
	j func(u, jac []float64)
}

func (s denseSystem) Dim() int { return s.n }

func (s denseSystem) Eval(u, f []float64) error {
	s.f(u, f)
	return nil
}

func (s denseSystem) JacobianCSR(u []float64) (*la.CSR, error) {
	jac := make([]float64, s.n*s.n)
	s.j(u, jac)
	b := la.NewCOO(s.n, s.n)
	for k, v := range jac {
		b.Append(k/s.n, k%s.n, v)
	}
	return b.ToCSR(), nil
}

// complexCubic is f(z) = z³ − 1 on the complex plane written as a 2-D real
// system in (re, im) — the tutorial problem of §2 (Equation 1, Figure 2).
func complexCubic() denseSystem {
	return denseSystem{
		n: 2,
		f: func(u, f []float64) {
			re, im := u[0], u[1]
			// z³ = (re + i·im)³
			f[0] = re*re*re - 3*re*im*im - 1
			f[1] = 3*re*re*im - im*im*im
		},
		j: func(u, jac []float64) {
			re, im := u[0], u[1]
			// d(z³)/dz = 3z²; as a real 2×2 block [[a,−b],[b,a]] with
			// a = 3(re²−im²), b = 6·re·im (Cauchy–Riemann structure).
			a := 3 * (re*re - im*im)
			b := 6 * re * im
			copy(jac, []float64{a, -b, b, a})
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
func coupledQuadratic(rhs0, rhs1 float64) denseSystem {
	return denseSystem{
		n: 2,
		f: func(u, f []float64) {
			f[0] = u[0]*u[0] + u[0] + u[1] - rhs0
			f[1] = u[1]*u[1] + u[1] - u[0] - rhs1
		},
		j: func(u, jac []float64) {
			copy(jac, []float64{2*u[0] + 1, 1, -1, 2*u[1] + 1})
		},
	}
}

// atanScalar is f(u) = atan(u), the classic example where undamped Newton
// overshoots and diverges for |u0| ≳ 1.392.
func atanScalar() denseSystem {
	return denseSystem{
		n: 1,
		f: func(u, f []float64) { f[0] = math.Atan(u[0]) },
		j: func(u, jac []float64) { jac[0] = 1 / (1 + u[0]*u[0]) },
	}
}
