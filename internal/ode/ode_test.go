package ode

import (
	"errors"
	"math"
	"testing"
)

// expDecay: dy/dt = −y, solution y(t) = y0·e^{−t}.
func expDecay(t float64, y, dydt []float64) error {
	for i := range y {
		dydt[i] = -y[i]
	}
	return nil
}

// harmonic: y” = −y written as a 2-D first-order system.
func harmonic(t float64, y, dydt []float64) error {
	dydt[0] = y[1]
	dydt[1] = -y[0]
	return nil
}

func TestDormandPrinceAccuracy(t *testing.T) {
	res, err := dormandPrince(expDecay, []float64{1}, 5, AdaptiveOptions{AbsTol: 1e-12, RelTol: 1e-10}, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := math.Exp(-5)
	if math.Abs(res.Y[0]-want) > 1e-9 {
		t.Fatalf("DP result %g, want %g", res.Y[0], want)
	}
	if res.Steps == 0 || res.Evals == 0 {
		t.Fatal("statistics not recorded")
	}
}

func TestDormandPrinceAdaptsStepSize(t *testing.T) {
	// A stiff-ish transition: derivative large near t=0 then tiny. The
	// adaptive integrator should take large steps once the transient is
	// gone.
	fast := func(t float64, y, dydt []float64) error {
		dydt[0] = -50 * (y[0] - math.Cos(t))
		return nil
	}
	res, err := dormandPrince(fast, []float64{0}, 10, AdaptiveOptions{AbsTol: 1e-8, RelTol: 1e-8}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rejects == 0 {
		t.Log("no rejected steps; controller had an easy ride (acceptable)")
	}
	if res.Steps >= 100000 {
		t.Fatalf("adaptive integrator used too many steps: %d", res.Steps)
	}
}

func TestDormandPrinceHarmonicLongRun(t *testing.T) {
	res, err := dormandPrince(harmonic, []float64{1, 0}, 20*math.Pi, AdaptiveOptions{AbsTol: 1e-10, RelTol: 1e-10}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Y[0]-1) > 1e-6 || math.Abs(res.Y[1]) > 1e-6 {
		t.Fatalf("after 10 periods: y = %v, want (1, 0)", res.Y)
	}
}

func TestSystemErrorPropagates(t *testing.T) {
	boom := errors.New("derivative blew up")
	f := func(tm float64, y, dydt []float64) error {
		if tm > 0.3 {
			return boom
		}
		dydt[0] = 1
		return nil
	}
	_, err := dormandPrince(f, []float64{0}, 1, AdaptiveOptions{}, nil)
	if !errors.Is(err, boom) {
		t.Fatalf("expected propagated error from DP, got %v", err)
	}
	// The settle test evaluates nothing itself, so every error comes from a
	// stage: the first step is the initial evaluation plus six stages, so
	// failing from the eighth call on fails the second step's first new
	// stage, and IntegrateToSteadyState surfaces it after one step.
	calls := 0
	g := func(tm float64, y, dydt []float64) error {
		if calls++; calls > 7 {
			return boom
		}
		dydt[0] = -y[0]
		return nil
	}
	sr, err := IntegrateToSteadyState(g, []float64{1}, SteadyStateOptions{TMax: 10})
	if !errors.Is(err, boom) || sr.Steps != 1 {
		t.Fatalf("expected the second step's stage error after 1 step, got %d steps, err=%v", sr.Steps, err)
	}
}

// coupled is a nonlinear 3-variable system that decays to a steady state,
// so the stage sums round differently from the 5th-order solution.
func coupled(t float64, y, dydt []float64) error {
	dydt[0] = -(y[0] - 1) + 0.3*y[1]*y[2]
	dydt[1] = -2*y[1] + 0.5*math.Sin(y[0])
	dydt[2] = -0.7*y[2] - 0.2*y[0]*y[1]
	return nil
}

// TestSteadyStateEvaluatesOnlyStages pins the settle test's cost: f runs
// exactly Result.Evals times, with no extra evaluation per accepted step.
func TestSteadyStateEvaluatesOnlyStages(t *testing.T) {
	calls := 0
	f := func(tm float64, y, dydt []float64) error {
		calls++
		return coupled(tm, y, dydt)
	}
	res, err := IntegrateToSteadyState(f, []float64{0.2, -1, 2}, SteadyStateOptions{TMax: 100, DerivTol: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Settled || res.Steps < 10 {
		t.Fatalf("settled=%v after %d steps; want a settled run of several steps", res.Settled, res.Steps)
	}
	if calls != res.Evals {
		t.Fatalf("f ran %d times, Result.Evals = %d", calls, res.Evals)
	}
}

// TestAcceptedStepDerivativeIsExact checks the FSAL stage at every accepted
// step: the last evaluation before the observer runs is at the accepted
// (t, y) bit for bit, and the derivative the observer gets, which the settle
// test judges and the next step starts from, equals a fresh f(t, y). The
// settled run ends on such a step.
func TestAcceptedStepDerivativeIsExact(t *testing.T) {
	var lastT float64
	lastY, lastD, fresh := make([]float64, 3), make([]float64, 3), make([]float64, 3)
	f := func(tm float64, y, dydt []float64) error {
		err := coupled(tm, y, dydt)
		lastT = tm
		copy(lastY, y)
		copy(lastD, dydt)
		return err
	}
	same := func(a, b []float64) bool {
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				return false
			}
		}
		return true
	}
	steps := 0
	obs := func(tm float64, y, dydt []float64) bool {
		steps++
		if err := coupled(tm, y, fresh); err != nil {
			t.Fatal(err)
		}
		if lastT != tm || !same(lastY, y) || !same(lastD, fresh) || !same(dydt, fresh) {
			t.Fatalf("step %d: last evaluation at t=%v y=%v gave %v, observer got %v; accepted t=%v y=%v, f there %v",
				steps, lastT, lastY, lastD, dydt, tm, y, fresh)
		}
		return true
	}
	y0 := []float64{0.2, -1, 2}
	res, err := dormandPrince(f, y0, 20, AdaptiveOptions{}, obs)
	if err != nil {
		t.Fatal(err)
	}
	if steps < 10 || steps != res.Steps {
		t.Fatalf("observer saw %d steps; want ≥ 10 and Result.Steps = %d", steps, res.Steps)
	}
	sr, err := IntegrateToSteadyState(f, y0, SteadyStateOptions{TMax: 100, DerivTol: 1e-6})
	if err != nil || !sr.Settled {
		t.Fatalf("settled=%v, err=%v", sr.Settled, err)
	}
	if err := coupled(sr.T, sr.Y, fresh); err != nil {
		t.Fatal(err)
	}
	if lastT != sr.T || !same(lastY, sr.Y) || !same(lastD, fresh) {
		t.Fatalf("settled run: last evaluation at t=%v y=%v gave %v; final t=%v y=%v, f there %v",
			lastT, lastY, lastD, sr.T, sr.Y, fresh)
	}
}

func TestNonFiniteStateDetected(t *testing.T) {
	f := func(tm float64, y, dydt []float64) error {
		dydt[0] = math.Inf(1)
		return nil
	}
	if _, err := dormandPrince(f, []float64{0}, 1, AdaptiveOptions{}, nil); err == nil {
		t.Fatal("expected error for non-finite state")
	}
}

func TestIntegrateToSteadyState(t *testing.T) {
	// dy/dt = −(y−3): settles at y = 3 with time constant 1.
	f := func(tm float64, y, dydt []float64) error {
		dydt[0] = -(y[0] - 3)
		return nil
	}
	res, err := IntegrateToSteadyState(f, []float64{0}, SteadyStateOptions{
		TMax:     100,
		DerivTol: 1e-6,
		Adaptive: AdaptiveOptions{AbsTol: 1e-10, RelTol: 1e-10},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Settled {
		t.Fatal("system should settle")
	}
	// The settle test stops the integration; it does not run on to TMax.
	if res.T >= 100 {
		t.Fatalf("integration ran to t=%g after settling at %g", res.T, res.SettleTime)
	}
	if math.Abs(res.Y[0]-3) > 1e-5 {
		t.Fatalf("settled value %g, want 3", res.Y[0])
	}
	// Settle time should be ≈ −ln(tol/3)·τ ≈ 14.9·1; loosely bounded.
	if res.SettleTime < 5 || res.SettleTime > 40 {
		t.Fatalf("settle time %g out of expected range", res.SettleTime)
	}
}

func TestSteadyStateNeverSettles(t *testing.T) {
	res, err := IntegrateToSteadyState(harmonic, []float64{1, 0}, SteadyStateOptions{
		TMax:     10,
		DerivTol: 1e-9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Settled {
		t.Fatal("oscillator must not report steady state")
	}
}

func TestDormandPrinceStepBudget(t *testing.T) {
	_, err := dormandPrince(harmonic, []float64{1, 0}, 1e9, AdaptiveOptions{MaxSteps: 10}, nil)
	if !errors.Is(err, ErrTooManySteps) {
		t.Fatalf("expected ErrTooManySteps, got %v", err)
	}
}
