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

func TestEulerFirstOrderAccuracy(t *testing.T) {
	// Error should shrink roughly linearly with dt.
	exact := math.Exp(-1)
	errAt := func(dt float64) float64 {
		res, err := Euler(expDecay, []float64{1}, 0, 1, FixedOptions{Dt: dt})
		if err != nil {
			t.Fatal(err)
		}
		return math.Abs(res.Y[0] - exact)
	}
	e1 := errAt(0.01)
	e2 := errAt(0.005)
	ratio := e1 / e2
	if ratio < 1.7 || ratio > 2.3 {
		t.Fatalf("Euler convergence ratio %g, want ≈ 2", ratio)
	}
}

func TestHeunSecondOrderAccuracy(t *testing.T) {
	exact := math.Exp(-1)
	errAt := func(dt float64) float64 {
		res, err := Heun(expDecay, []float64{1}, 0, 1, FixedOptions{Dt: dt})
		if err != nil {
			t.Fatal(err)
		}
		return math.Abs(res.Y[0] - exact)
	}
	ratio := errAt(0.02) / errAt(0.01)
	if ratio < 3.4 || ratio > 4.6 {
		t.Fatalf("Heun convergence ratio %g, want ≈ 4", ratio)
	}
}

func TestRK4FourthOrderAccuracy(t *testing.T) {
	exact := math.Exp(-1)
	errAt := func(dt float64) float64 {
		res, err := RK4(expDecay, []float64{1}, 0, 1, FixedOptions{Dt: dt})
		if err != nil {
			t.Fatal(err)
		}
		return math.Abs(res.Y[0] - exact)
	}
	ratio := errAt(0.1) / errAt(0.05)
	if ratio < 12 || ratio > 20 {
		t.Fatalf("RK4 convergence ratio %g, want ≈ 16", ratio)
	}
}

func TestRK4HarmonicEnergyConservation(t *testing.T) {
	res, err := RK4(harmonic, []float64{1, 0}, 0, 2*math.Pi, FixedOptions{Dt: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Y[0]-1) > 1e-8 || math.Abs(res.Y[1]) > 1e-8 {
		t.Fatalf("after one period: y = %v, want (1, 0)", res.Y)
	}
}

func TestDormandPrinceAccuracy(t *testing.T) {
	res, err := DormandPrince(expDecay, []float64{1}, 0, 5, AdaptiveOptions{AbsTol: 1e-12, RelTol: 1e-10})
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
	// adaptive integrator should use far fewer evals than fixed RK4 at
	// the accuracy it achieves.
	fast := func(t float64, y, dydt []float64) error {
		dydt[0] = -50 * (y[0] - math.Cos(t))
		return nil
	}
	res, err := DormandPrince(fast, []float64{0}, 0, 10, AdaptiveOptions{AbsTol: 1e-8, RelTol: 1e-8})
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
	res, err := DormandPrince(harmonic, []float64{1, 0}, 0, 20*math.Pi, AdaptiveOptions{AbsTol: 1e-10, RelTol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Y[0]-1) > 1e-6 || math.Abs(res.Y[1]) > 1e-6 {
		t.Fatalf("after 10 periods: y = %v, want (1, 0)", res.Y)
	}
}

func TestObserverEarlyStop(t *testing.T) {
	stopAt := 0.5
	obs := func(tm float64, y []float64) bool { return tm < stopAt }
	res, err := RK4(expDecay, []float64{1}, 0, 10, FixedOptions{Dt: 0.01, Observer: obs})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stopped {
		t.Fatal("observer stop not recorded")
	}
	if res.T > stopAt+0.02 {
		t.Fatalf("stopped at t=%g, want ≈ %g", res.T, stopAt)
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
	_, err := RK4(f, []float64{0}, 0, 1, FixedOptions{Dt: 0.1})
	if !errors.Is(err, boom) {
		t.Fatalf("expected propagated error, got %v", err)
	}
	_, err = DormandPrince(f, []float64{0}, 0, 1, AdaptiveOptions{})
	if !errors.Is(err, boom) {
		t.Fatalf("expected propagated error from DP, got %v", err)
	}
	// The user observer runs just before IntegrateToSteadyState's own
	// derivative evaluation, so arming here makes exactly that call fail.
	armed := false
	g := func(tm float64, y, dydt []float64) error {
		if armed {
			return boom
		}
		dydt[0] = -y[0]
		return nil
	}
	sr, err := IntegrateToSteadyState(g, []float64{1}, SteadyStateOptions{
		TMax:     10,
		Adaptive: AdaptiveOptions{Observer: func(float64, []float64) bool { armed = true; return true }},
	})
	if !errors.Is(err, boom) {
		t.Fatalf("expected the observer's evaluation error, got settled=%v err=%v", sr.Settled, err)
	}
}

func TestNonFiniteStateDetected(t *testing.T) {
	f := func(tm float64, y, dydt []float64) error {
		dydt[0] = math.Inf(1)
		return nil
	}
	if _, err := Euler(f, []float64{0}, 0, 1, FixedOptions{Dt: 0.1}); err == nil {
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

func TestFixedStepValidation(t *testing.T) {
	if _, err := Euler(expDecay, []float64{1}, 0, 1, FixedOptions{}); err == nil {
		t.Fatal("expected error for missing Dt")
	}
	if _, err := Euler(expDecay, []float64{1}, 1, 0, FixedOptions{Dt: 0.1}); err == nil {
		t.Fatal("expected error for reversed time span")
	}
}

func TestDormandPrinceStepBudget(t *testing.T) {
	_, err := DormandPrince(harmonic, []float64{1, 0}, 0, 1e9, AdaptiveOptions{MaxSteps: 10, MaxDt: 0.001})
	if !errors.Is(err, ErrTooManySteps) {
		t.Fatalf("expected ErrTooManySteps, got %v", err)
	}
}
