package analog

import (
	"errors"
	"fmt"
	"math"

	"hybridpde/internal/la"
	"hybridpde/internal/nonlin"
	"hybridpde/internal/problem"
)

// ErrTranscendental is returned for systems that cannot be range-scaled.
// §5.3: "Transcendental nonlinear functions cause problems for analog
// accelerators because there is no clear way to scale problem variables to
// fit in the analog accelerator dynamic range."
var ErrTranscendental = errors.New("analog: transcendental nonlinearity cannot be scaled into the dynamic range")

// PolySystem couples a nonlinear system with an explicit degree, the most
// convenient way to hand problems to the accelerator.
type PolySystem struct {
	nonlin.SparseSystem
	Degree int
}

// PolynomialDegree reports the declared degree.
func (p PolySystem) PolynomialDegree() int { return p.Degree }

// scaledSystem maps the problem F(u) = 0 with |u| ≤ s into the hardware's
// normalised coordinates w = u/s, |w| ≤ 1 (§5.3): G(w) = F(s·w)/s^deg. For
// a polynomial of degree `deg` this automatically scales the quadratic
// terms by 1, linear coefficients by 1/s^{deg−1}, and constants by 1/s^deg,
// exactly the proportionality rule the paper states. Roots are preserved:
// G(w) = 0 ⟺ F(s·w) = 0.
type scaledSystem struct {
	sys   nonlin.SparseSystem // the unscaled F
	s     float64             // dynamic range of u
	deg   int
	fNorm float64 // 1/s^deg
	jNorm float64 // s/s^deg
	uBuf  []float64
}

// newScaledSparse resolves the polynomial degree of sys, defaulting to 2 —
// the degree of every PDE stencil in the paper (Burgers and the semilinear
// reaction systems are quadratic) — and derives the scale factors from it.
func newScaledSparse(sys nonlin.SparseSystem, dynamicRange float64) (*scaledSystem, error) {
	deg := 2
	if d, ok := sys.(problem.DegreeReporter); ok {
		deg = d.PolynomialDegree()
		if deg < 0 {
			return nil, ErrTranscendental
		}
		if deg == 0 {
			return nil, fmt.Errorf("analog: degree-0 system is constant, nothing to solve")
		}
	}
	if dynamicRange <= 0 {
		dynamicRange = 1
	}
	sp := math.Pow(dynamicRange, float64(deg))
	return &scaledSystem{sys: sys, s: dynamicRange, deg: deg, fNorm: 1 / sp, jNorm: dynamicRange / sp, uBuf: make([]float64, sys.Dim())}, nil
}

func (ss *scaledSystem) Dim() int { return len(ss.uBuf) }

// lift writes u = s·w, the problem-coordinate image of a hardware state,
// into the record's scratch vector.
func (ss *scaledSystem) lift(w []float64) []float64 {
	for i, v := range w {
		ss.uBuf[i] = ss.s * v
	}
	return ss.uBuf
}

// toProblem converts a hardware-space state back to problem coordinates.
func (ss *scaledSystem) toProblem(w []float64) []float64 { return la.Copy(ss.lift(w)) }

func (ss *scaledSystem) Eval(w, g []float64) error {
	if err := ss.sys.Eval(ss.lift(w), g); err != nil {
		return err
	}
	for i := range g {
		g[i] *= ss.fNorm
	}
	return nil
}

func (ss *scaledSystem) JacobianCSR(w []float64) (*la.CSR, error) {
	j, err := ss.sys.JacobianCSR(ss.lift(w))
	if err != nil {
		return nil, err
	}
	j.Scale(ss.jNorm)
	return j, nil
}

// quantize rounds x onto a signed grid with the given number of bits over
// the normalised range ±1, the behaviour of the chip's converters.
func quantize(x float64, bits int) float64 {
	if bits <= 0 {
		return x
	}
	steps := float64(int64(1) << (bits - 1))
	q := math.Round(x*steps) / steps
	if q > 1 {
		q = 1
	}
	if q < -1 {
		q = -1
	}
	return q
}

// clamp saturates x to ±limit, modelling the dynamic-range clip.
func clamp(x, limit float64) float64 {
	if x > limit {
		return limit
	}
	if x < -limit {
		return -limit
	}
	return x
}

// softClamp saturates smoothly: limit·tanh(x/limit). Real current-mode
// drivers compress gradually rather than clipping, and the smoothness
// matters for the simulation too — a hard clamp makes the flow's
// derivative discontinuous and forces the adaptive integrator into
// permanent step rejection near the saturation boundary.
func softClamp(x, limit float64) float64 {
	return limit * math.Tanh(x/limit)
}
