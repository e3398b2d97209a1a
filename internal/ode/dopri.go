package ode

import (
	"fmt"
	"math"
)

// AdaptiveOptions configures the adaptive Dormand–Prince integrator.
type AdaptiveOptions struct {
	AbsTol   float64 // default 1e-9
	RelTol   float64 // default 1e-6
	InitDt   float64 // default: auto from derivative magnitude
	MaxDt    float64 // default: tEnd − t0
	MaxSteps int     // accepted-step budget; default 1e6
	// MaxEvals bounds total derivative evaluations, including those of
	// rejected trial steps — the real cost guard for stiff regions where
	// the controller rejects many trials per acceptance. Default
	// 20·MaxSteps.
	MaxEvals int
	Observer Observer // optional early-stop hook
}

func (o *AdaptiveOptions) defaults(span float64) {
	if o.AbsTol <= 0 {
		o.AbsTol = 1e-9
	}
	if o.RelTol <= 0 {
		o.RelTol = 1e-6
	}
	if o.MaxDt <= 0 {
		o.MaxDt = span
	}
	if o.MaxSteps <= 0 {
		o.MaxSteps = 1_000_000
	}
	if o.MaxEvals <= 0 {
		o.MaxEvals = 20 * o.MaxSteps
	}
}

// Dormand–Prince 5(4) tableau.
var (
	dpC = [7]float64{0, 1.0 / 5, 3.0 / 10, 4.0 / 5, 8.0 / 9, 1, 1}
	dpA = [7][6]float64{
		{},
		{1.0 / 5},
		{3.0 / 40, 9.0 / 40},
		{44.0 / 45, -56.0 / 15, 32.0 / 9},
		{19372.0 / 6561, -25360.0 / 2187, 64448.0 / 6561, -212.0 / 729},
		{9017.0 / 3168, -355.0 / 33, 46732.0 / 5247, 49.0 / 176, -5103.0 / 18656},
		{35.0 / 384, 0, 500.0 / 1113, 125.0 / 192, -2187.0 / 6784, 11.0 / 84},
	}
	// 5th-order solution weights (same as last row of A — FSAL).
	dpB5 = [7]float64{35.0 / 384, 0, 500.0 / 1113, 125.0 / 192, -2187.0 / 6784, 11.0 / 84, 0}
	// 4th-order embedded weights.
	dpB4 = [7]float64{5179.0 / 57600, 0, 7571.0 / 16695, 393.0 / 640, -92097.0 / 339200, 187.0 / 2100, 1.0 / 40}
)

// DormandPrince integrates dy/dt = f(t,y) from t0 to tEnd with adaptive step
// control (RK5(4), PI controller). It matches the role of
// odeint::runge_kutta_dopri5 used by the paper's accelerator model.
func DormandPrince(f System, y0 []float64, t0, tEnd float64, opts AdaptiveOptions) (Result, error) {
	if tEnd < t0 {
		return Result{}, fmt.Errorf("ode: tEnd %g before t0 %g", tEnd, t0)
	}
	opts.defaults(tEnd - t0)
	n := len(y0)
	y := make([]float64, n)
	copy(y, y0)
	res := Result{T: t0, Y: y}
	if tEnd == t0 { //pdevet:allow floateq degenerate interval check on caller-passed bounds, not computed values
		return res, nil
	}

	k := make([][]float64, 7)
	for i := range k {
		k[i] = make([]float64, n)
	}
	ytmp := make([]float64, n)
	y5 := make([]float64, n)
	yerr := make([]float64, n)

	// Initial derivative; also used for automatic initial step selection.
	if err := f(t0, y, k[0]); err != nil {
		return res, err
	}
	res.Evals++
	h := opts.InitDt
	if h <= 0 {
		d0 := norm(y)
		d1 := norm(k[0])
		if d1 > 1e-12 {
			h = 0.01 * (d0 + opts.AbsTol) / d1
		} else {
			h = (tEnd - t0) / 100
		}
		if h > opts.MaxDt {
			h = opts.MaxDt
		}
		if h <= 0 {
			h = 1e-6
		}
	}

	const (
		safety   = 0.9
		minScale = 0.2
		maxScale = 5.0
	)
	t := t0
	firstSameAsLast := false
	for t < tEnd {
		if res.Steps >= opts.MaxSteps || res.Evals >= opts.MaxEvals {
			return res, ErrTooManySteps
		}
		if h > opts.MaxDt {
			h = opts.MaxDt
		}
		if t+h > tEnd {
			h = tEnd - t
		}
		// The t+h == t comparison is the canonical exact step-underflow test.
		if h <= math.SmallestNonzeroFloat64*16 || t+h == t { //pdevet:allow floateq
			return res, ErrStepUnderflow
		}
		if firstSameAsLast {
			// k[6] from the accepted step is k[0] of this one (FSAL).
			copy(k[0], k[6])
		}
		// Stages 2..7.
		failed := false
		for s := 1; s < 7; s++ {
			for i := 0; i < n; i++ {
				acc := y[i]
				for j := 0; j < s; j++ {
					if dpA[s][j] != 0 { //pdevet:allow floateq Butcher-tableau entries are structural zeros by assignment
						acc += h * dpA[s][j] * k[j][i]
					}
				}
				ytmp[i] = acc
			}
			if err := f(t+dpC[s]*h, ytmp, k[s]); err != nil {
				return res, err
			}
			res.Evals++
			if !validState(k[s]) {
				failed = true
				break
			}
		}
		if failed {
			res.Rejects++
			h *= minScale
			firstSameAsLast = false
			continue
		}
		// Candidate solution and embedded error.
		errNorm := 0.0
		for i := 0; i < n; i++ {
			s5, s4 := 0.0, 0.0
			for s := 0; s < 7; s++ {
				if dpB5[s] != 0 { //pdevet:allow floateq Butcher-tableau entries are structural zeros by assignment
					s5 += dpB5[s] * k[s][i]
				}
				if dpB4[s] != 0 { //pdevet:allow floateq Butcher-tableau entries are structural zeros by assignment
					s4 += dpB4[s] * k[s][i]
				}
			}
			y5[i] = y[i] + h*s5
			yerr[i] = h * (s5 - s4)
			sc := opts.AbsTol + opts.RelTol*math.Max(math.Abs(y[i]), math.Abs(y5[i]))
			e := yerr[i] / sc
			errNorm += e * e
		}
		errNorm = math.Sqrt(errNorm / float64(n))
		if errNorm <= 1 && validState(y5) {
			// Accept.
			t += h
			copy(y, y5)
			res.Steps++
			res.T = t
			firstSameAsLast = true
			if opts.Observer != nil && !opts.Observer(t, y) {
				res.Stopped = true
				return res, nil
			}
			scale := maxScale
			if errNorm > 0 {
				scale = safety * math.Pow(errNorm, -0.2)
				if scale > maxScale {
					scale = maxScale
				}
				if scale < minScale {
					scale = minScale
				}
			}
			h *= scale
		} else {
			res.Rejects++
			scale := safety * math.Pow(math.Max(errNorm, 1e-10), -0.2)
			if scale < minScale {
				scale = minScale
			}
			if scale > 1 {
				scale = 1
			}
			h *= scale
			firstSameAsLast = false
		}
	}
	return res, nil
}

func norm(x []float64) float64 {
	s := 0.0
	for _, v := range x {
		s += v * v
	}
	return math.Sqrt(s)
}

// SteadyStateOptions configures IntegrateToSteadyState.
type SteadyStateOptions struct {
	Adaptive AdaptiveOptions
	// DerivTol: the state is steady when ‖dy/dt‖₂ ≤ DerivTol·(1+‖y‖₂).
	// Default 1e-8. This mirrors the analog circuit condition "the inputs
	// to the integrators tend toward zero" (§2.2).
	DerivTol float64
	// TMax bounds the integration horizon. Required.
	TMax float64
	// MinHold: steady condition must hold for this many consecutive
	// accepted steps before stopping (debounce). Default 3.
	MinHold int
	// MinTime ignores the steady criterion before this time, for systems
	// that are deliberately driven early on (e.g. a homotopy λ ramp).
	MinTime float64
}

// SteadyResult reports a steady-state integration.
type SteadyResult struct {
	Result
	SettleTime float64 // time at which the derivative criterion first held
	Settled    bool
}

// IntegrateToSteadyState advances the system until its derivative vanishes,
// returning the settle time — the quantity the paper converts into analog
// solution time. If the system never settles before TMax, Settled is false
// and the final state is still returned.
func IntegrateToSteadyState(f System, y0 []float64, opts SteadyStateOptions) (SteadyResult, error) {
	if opts.TMax <= 0 {
		return SteadyResult{}, fmt.Errorf("ode: IntegrateToSteadyState requires TMax > 0")
	}
	if opts.DerivTol <= 0 {
		opts.DerivTol = 1e-8
	}
	if opts.MinHold <= 0 {
		opts.MinHold = 3
	}
	hold := 0
	settleAt := math.NaN()
	var obsErr error
	deriv := make([]float64, len(y0))
	inner := opts.Adaptive
	userObs := inner.Observer
	inner.Observer = func(t float64, y []float64) bool {
		if userObs != nil && !userObs(t, y) {
			return false
		}
		if t < opts.MinTime {
			return true
		}
		if obsErr = f(t, y, deriv); obsErr != nil {
			// Stop the integration; surfaced after DormandPrince returns.
			return false
		}
		if norm(deriv) <= opts.DerivTol*(1+norm(y)) {
			hold++
			if hold == 1 {
				settleAt = t
			}
			if hold >= opts.MinHold {
				return false
			}
		} else {
			hold = 0
			settleAt = math.NaN()
		}
		return true
	}
	res, err := DormandPrince(f, y0, 0, opts.TMax, inner)
	sr := SteadyResult{Result: res}
	if err == nil {
		err = obsErr
	}
	if err != nil {
		return sr, err
	}
	if hold >= opts.MinHold {
		sr.Settled = true
		sr.SettleTime = settleAt
	}
	return sr, nil
}
