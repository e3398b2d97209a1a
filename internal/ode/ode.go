// Package ode provides the ordinary-differential-equation integrator of the
// fabric model. It plays the role the Odeint C++ library plays in the paper
// (§6.1): the simulated analog accelerator evolves the continuous-Newton and
// homotopy ODEs with an adaptive Runge–Kutta method until they settle, and
// the time the trajectory takes to settle is the analog solution time.
package ode

import (
	"errors"
	"math"
)

// System computes dy/dt = f(t, y) into dydt. Implementations must not retain
// the slices across calls. A System returns an error when the derivative is
// not computable (for example, a singular Jacobian inside continuous
// Newton's method); integrators abort and surface the error.
type System func(t float64, y, dydt []float64) error

// Result describes a finished integration.
type Result struct {
	T       float64 // time reached
	Y       []float64
	Steps   int // accepted steps
	Rejects int // rejected adaptive trials
	Evals   int // derivative evaluations
}

// ErrStepUnderflow is returned when the adaptive controller cannot satisfy
// the tolerance with any representable step size, usually a sign that the
// trajectory hit a singularity.
var ErrStepUnderflow = errors.New("ode: step size underflow")

// ErrTooManySteps is returned when MaxSteps or MaxEvals is exhausted before
// the end of the interval.
var ErrTooManySteps = errors.New("ode: exceeded step budget")

func validState(y []float64) bool {
	for _, v := range y {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}
