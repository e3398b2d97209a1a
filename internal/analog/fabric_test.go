package analog

import (
	"errors"
	"math"
	"testing"
)

func TestFabricCapacity(t *testing.T) {
	f := NewFabric(Config{Seed: 1})
	if f.Capacity() != 8 {
		t.Fatalf("prototype board capacity %d, want 8 (2 chips × 4 tiles)", f.Capacity())
	}
}

func TestAllocateCellsExhaustsTiles(t *testing.T) {
	f := NewFabric(Config{Seed: 2})
	f.Calibrate()
	cells, err := f.AllocateCells(8)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 8 {
		t.Fatalf("allocated %d cells, want 8", len(cells))
	}
	f.FreeAll()
	if _, err := f.AllocateCells(9); !errors.Is(err, ErrInsufficientHardware) {
		t.Fatalf("expected ErrInsufficientHardware for 9 variables, got %v", err)
	}
}

func TestFreeAllAllowsReuse(t *testing.T) {
	f := NewFabric(Config{Seed: 3})
	if _, err := f.AllocateCells(8); err != nil {
		t.Fatal(err)
	}
	// Second allocation without freeing must fail on used components.
	if _, err := f.AllocateCells(1); err == nil {
		t.Fatal("expected allocation failure while components are in use")
	}
	f.FreeAll()
	if _, err := f.AllocateCells(8); err != nil {
		t.Fatalf("reallocation after FreeAll failed: %v", err)
	}
}

func TestCalibrationShrinksMismatch(t *testing.T) {
	f := NewFabric(Config{Seed: 4})
	var rawSum float64
	for _, tile := range f.Tiles() {
		for _, pool := range tile.components {
			for _, c := range pool {
				rawSum += math.Abs(c.Gain) + math.Abs(c.Offset)
			}
		}
	}
	f.Calibrate()
	var calSum float64
	for _, tile := range f.Tiles() {
		for _, pool := range tile.components {
			for _, c := range pool {
				calSum += math.Abs(c.Gain) + math.Abs(c.Offset)
			}
		}
	}
	if !f.Calibrated() {
		t.Fatal("Calibrated() should be true")
	}
	if calSum >= rawSum*0.5 {
		t.Fatalf("calibration should shrink mismatch: raw %.3f, calibrated %.3f", rawSum, calSum)
	}
	if calSum == 0 {
		t.Fatal("calibration residual must remain nonzero (limited DAC precision)")
	}
}

func TestMismatchReproducibleBySeed(t *testing.T) {
	a := NewFabric(Config{Seed: 42})
	b := NewFabric(Config{Seed: 42})
	ta, tb := a.Tiles()[3], b.Tiles()[3]
	ca := ta.components[KindMultiplier][2]
	cb := tb.components[KindMultiplier][2]
	if ca.Gain != cb.Gain || ca.Offset != cb.Offset {
		t.Fatal("same seed must give identical process variation")
	}
	c := NewFabric(Config{Seed: 43})
	cc := c.Tiles()[3].components[KindMultiplier][2]
	if ca.Gain == cc.Gain {
		t.Fatal("different seeds should give different mismatch")
	}
}

func TestScaledFabricCapacity(t *testing.T) {
	acc, err := NewScaled(16, 7)
	if err != nil {
		t.Fatal(err)
	}
	if acc.Capacity() != 512 {
		t.Fatalf("16×16 accelerator capacity %d, want 512", acc.Capacity())
	}
	if _, err := NewScaled(17, 7); err == nil {
		t.Fatal("grids beyond 16×16 must be rejected (Table 4 practicality limit)")
	}
	if _, err := NewScaled(0, 7); err == nil {
		t.Fatal("grid 0 must be rejected")
	}
}

func TestHomotopyBlendLambdaRamp(t *testing.T) {
	b := &homotopyBlend{}
	if b.lambda(0) != 0 {
		t.Fatal("λ(0) must be 0")
	}
	if got := b.lambda(homotopyRampTau / 2); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("λ at half the ramp = %g, want 0.5", got)
	}
	if b.lambda(homotopyRampTau) != 1 || b.lambda(10*homotopyRampTau) != 1 {
		t.Fatal("λ must clamp to 1 after the ramp")
	}
}

func TestAcceleratorAreaPowerAccessors(t *testing.T) {
	acc := NewPrototype(20)
	if math.Abs(acc.AreaMM2()-8*AreaPerVariableMM2) > 1e-9 {
		t.Fatalf("prototype area %g, want %g", acc.AreaMM2(), 8*AreaPerVariableMM2)
	}
	if math.Abs(acc.PeakPowerWatts(8)-8*PowerPerVariableMW*1e-3) > 1e-12 {
		t.Fatal("peak power accessor wrong")
	}
}

func TestPolySystemDegreeReporting(t *testing.T) {
	p := PolySystem{Degree: 3}
	if p.PolynomialDegree() != 3 {
		t.Fatal("PolySystem must report its declared degree")
	}
	if _, err := newScaledSystem(PolySystem{Degree: 0}, 1); err == nil {
		t.Fatal("degree-0 systems must be rejected")
	}
}

func TestScaledSystemDefaultsToQuadratic(t *testing.T) {
	// Systems without a DegreeReporter default to the PDE stencil degree.
	sys := quadPair(1, -1)
	ss, err := newScaledSystem(sys, 2)
	if err != nil {
		t.Fatal(err)
	}
	if ss.deg != 2 {
		t.Fatalf("default degree %d, want 2", ss.deg)
	}
	// fNorm = 1/s², jNorm = 1/s.
	if math.Abs(ss.fNorm-0.25) > 1e-15 || math.Abs(ss.jNorm-0.5) > 1e-15 {
		t.Fatalf("scaling constants wrong: fNorm=%g jNorm=%g", ss.fNorm, ss.jNorm)
	}
}

func TestSoftClampProperties(t *testing.T) {
	// Smooth, odd, bounded, identity-like near zero.
	if softClamp(0, 10) != 0 {
		t.Fatal("softClamp(0) must be 0")
	}
	if math.Abs(softClamp(1e-4, 10)-1e-4) > 1e-9 {
		t.Fatal("softClamp must be ≈identity for small inputs")
	}
	if math.Abs(softClamp(1e6, 10)) > 10 || math.Abs(softClamp(-1e6, 10)) > 10 {
		t.Fatal("softClamp must be bounded by the limit")
	}
	if softClamp(3, 10) != -softClamp(-3, 10) {
		t.Fatal("softClamp must be odd")
	}
}
