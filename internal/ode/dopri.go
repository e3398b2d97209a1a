package ode

import (
	"fmt"
	"math"
)

// AdaptiveOptions configures the adaptive Dormand–Prince integrator.
type AdaptiveOptions struct {
	AbsTol   float64 // default 1e-9
	RelTol   float64 // default 1e-6
	MaxSteps int     // accepted-step budget; default 1e6
	// MaxEvals bounds total derivative evaluations, including those of
	// rejected trial steps — the real cost guard for stiff regions where
	// the controller rejects many trials per acceptance. Default
	// 20·MaxSteps.
	MaxEvals int
}

func (o *AdaptiveOptions) defaults() {
	if o.AbsTol <= 0 {
		o.AbsTol = 1e-9
	}
	if o.RelTol <= 0 {
		o.RelTol = 1e-6
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

// stepObserver is dormandPrince's hook after every accepted step: y is the
// accepted state at time t and dydt is f(t, y) bit for bit, the FSAL
// stage the next step starts from. Returning false stops the integration.
type stepObserver func(t float64, y, dydt []float64) bool

// dormandPrince integrates dy/dt = f(t,y) from 0 to tEnd > 0 with adaptive step
// control (RK5(4), PI controller), the role odeint::runge_kutta_dopri5 plays
// in the paper's accelerator model. It reports accepted steps to obs, which
// may be nil.
//
// Stage 7 is evaluated at the 5th-order solution y5 itself rather than at
// y + Σ h·a₇ⱼ·kⱼ: the tableau has a₇ = b₅, so the two agree up to rounding,
// and this way k[6] is exactly f at the state the step accepts. The next
// step's first stage (FSAL) and obs's derivative are then that exact f.
func dormandPrince(f System, y0 []float64, tEnd float64, opts AdaptiveOptions, obs stepObserver) (Result, error) {
	opts.defaults()
	n := len(y0)
	y := make([]float64, n)
	copy(y, y0)
	res := Result{Y: y}

	k := make([][]float64, 7)
	for i := range k {
		k[i] = make([]float64, n)
	}
	ytmp := make([]float64, n)
	y5 := make([]float64, n)
	s5 := make([]float64, n) // Σ b₅ⱼ·kⱼ, kept for the error estimate

	// Initial derivative; also used for automatic initial step selection.
	if err := f(0, y, k[0]); err != nil {
		return res, err
	}
	res.Evals++
	h := tEnd / 100
	if d1 := norm(k[0]); d1 > 1e-12 {
		h = 0.01 * (norm(y) + opts.AbsTol) / d1
	}
	if h <= 0 {
		h = 1e-6
	}

	const (
		safety   = 0.9
		minScale = 0.2
		maxScale = 5.0
	)
	t := 0.0
	firstSameAsLast := false
	for t < tEnd {
		if res.Steps >= opts.MaxSteps || res.Evals >= opts.MaxEvals {
			return res, ErrTooManySteps
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
			yin := ytmp
			if s < 6 {
				for i := 0; i < n; i++ {
					acc := y[i]
					for j := 0; j < s; j++ {
						if dpA[s][j] != 0 { //pdevet:allow floateq Butcher-tableau entries are structural zeros by assignment
							acc += float64(h * dpA[s][j] * k[j][i])
						}
					}
					ytmp[i] = acc
				}
			} else {
				// Stage 7 runs at the candidate solution y5 (a₇ⱼ = b₅ⱼ).
				yin = y5
				for i := 0; i < n; i++ {
					acc := 0.0
					for j := 0; j < 6; j++ {
						if dpB5[j] != 0 { //pdevet:allow floateq Butcher-tableau entries are structural zeros by assignment
							acc += float64(dpB5[j] * k[j][i])
						}
					}
					s5[i] = acc
					y5[i] = y[i] + float64(h*acc)
				}
			}
			if err := f(t+float64(dpC[s]*h), yin, k[s]); err != nil {
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
		// Embedded error.
		errNorm := 0.0
		for i := 0; i < n; i++ {
			s4 := 0.0
			for s := 0; s < 7; s++ {
				if dpB4[s] != 0 { //pdevet:allow floateq Butcher-tableau entries are structural zeros by assignment
					s4 += float64(dpB4[s] * k[s][i])
				}
			}
			sc := opts.AbsTol + float64(opts.RelTol*math.Max(math.Abs(y[i]), math.Abs(y5[i])))
			e := h * (s5[i] - s4) / sc
			errNorm += float64(e * e)
		}
		errNorm = math.Sqrt(errNorm / float64(n))
		if errNorm <= 1 && validState(y5) {
			// Accept.
			t += h
			copy(y, y5)
			res.Steps++
			res.T = t
			firstSameAsLast = true
			if obs != nil && !obs(t, y, k[6]) {
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
		s += float64(v * v)
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
//
// The settle test judges the derivative Dormand–Prince's last stage already
// evaluated at the accepted state, bit-equal to a fresh f(t, y), so it
// costs no evaluation of its own: f runs exactly Result.Evals times.
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
	res, err := dormandPrince(f, y0, opts.TMax, opts.Adaptive, func(t float64, y, dydt []float64) bool {
		if t < opts.MinTime {
			return true
		}
		if norm(dydt) <= opts.DerivTol*(1+norm(y)) {
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
	})
	sr := SteadyResult{Result: res}
	if err != nil {
		return sr, err
	}
	if hold >= opts.MinHold {
		sr.Settled = true
		sr.SettleTime = settleAt
	}
	return sr, nil
}
