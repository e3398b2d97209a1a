package analog

import (
	"math"
	"testing"

	"hybridpde/internal/la"
	"hybridpde/internal/pde"
)

// equilibrium is a second model of the fabric's answer, independent of the
// integrator: digital Newton on the system the board physically settles on.
// The flow run integrates is dw/dt = −δ(w) + c through the slew clamp, with
// δ(w) = (J̃ᵀJ̃ + εI)⁻¹J̃ᵀg̃ the quotient loop's regularised Newton step of
// the perturbed system — g̃ᵢ = (1+FuncGainᵢ)·gᵢ + FuncOffsetᵢ and row i of
// J̃ scaled by 1+JacGainᵢ, both at the saturated state — and cᵢ the
// integrator offset IntOffsetᵢ. Its equilibrium is the fixed point of
// w ← w − (δ(w) − c), which this iterates with full steps from the DAC
// load until the step is below 1e-13. It returns the raw state and the
// iteration count, or ok = false if the iteration does not converge.
func equilibrium(acc *Accelerator, b *pde.Burgers) (w []float64, iters int, ok bool) {
	ss, err := newScaledSparse(b, readoutRange)
	if err != nil {
		return nil, 0, false
	}
	n := ss.Dim()
	cells, err := acc.Fabric.AllocateCells(n)
	if err != nil {
		return nil, 0, false
	}
	defer acc.Fabric.FreeAll()
	w = make([]float64, n)
	for i, v := range b.InitialGuess() {
		w[i] = quantize(clamp(v/ss.s, 1), acc.Fabric.Config.DACBits)
	}
	sat := acc.Fabric.Config.SaturationLimit
	wsat, g, delta := make([]float64, n), make([]float64, n), make([]float64, n)
	var chol *la.BandCholesky
	for iters = 1; iters <= 200; iters++ {
		for i := range w {
			wsat[i] = clamp(w[i], sat)
		}
		if err := ss.Eval(wsat, g); err != nil {
			return nil, iters, false
		}
		jac, err := ss.JacobianCSR(wsat)
		if err != nil {
			return nil, iters, false
		}
		for i, c := range cells {
			g[i] = float64((1+c.FuncGain)*g[i]) + c.FuncOffset
			jac.ScaleRow(i, 1+c.JacGain)
		}
		if chol == nil {
			kl, ku := la.Bandwidths(jac)
			chol = la.NewBandCholesky(n, kl+ku)
		}
		if err := chol.FactorNormalFrom(jac, QuotientLoopEpsilon); err != nil {
			return nil, iters, false
		}
		jac.MulTransVec(delta, g)
		if err := chol.SolveInto(delta); err != nil {
			return nil, iters, false
		}
		step := 0.0
		for i, c := range cells {
			d := delta[i] - c.IntOffset
			w[i] -= d
			step = math.Max(step, math.Abs(d))
		}
		if step < 1e-13 {
			return w, iters, true
		}
	}
	return w, iters, false
}

// Tolerances of the readout oracle, in ADC LSBs (2⁻⁷ of the normalised
// range for the 8-bit converter).
const (
	// oracleGuardLSB: a value whose equilibrium lies within this distance
	// of a rounding boundary may read out on either side, because the
	// settle test stops the flow a little short of the equilibrium. On the
	// readout sweep the settled state sits at most 0.0008 LSB from it, so
	// the guard leaves more than a tenfold margin, and the raw state must
	// also lie inside it.
	oracleGuardLSB = 0.01
	// oracleGuardShare caps the share of values the guard may excuse, so
	// the check cannot pass by excusing many. Uniformly placed values fall
	// within the guard of a boundary with probability 2·oracleGuardLSB;
	// the cap is twice that.
	oracleGuardShare = 4 * oracleGuardLSB
)

// TestReadoutMatchesEquilibrium holds the fabric's readout to its
// equilibrium over the readout sweep: for every settled run, the RK45
// readout U equals the ADC-quantised oracle equilibrium, except for values
// whose equilibrium lies within oracleGuardLSB of a rounding boundary. It
// judges integrator and quotient-loop changes by what the chip would read,
// not by golden bits of the path the simulation took.
func TestReadoutMatchesEquilibrium(t *testing.T) {
	const lsb = 1.0 / 128
	var values, guarded, settled int
	worst := 0.0 // largest |W − w*| of a settled run, in LSBs
	readoutSweep(t, func(n, s int, acc *Accelerator, b *pde.Burgers, sol Solution) {
		if !sol.Converged {
			return
		}
		settled++
		wStar, iters, ok := equilibrium(acc, b)
		if !ok {
			t.Fatalf("n=%d s=%d: the equilibrium iteration did not converge in %d steps", n, s, iters)
		}
		bits := acc.Fabric.Config.ADCBits
		if bits != 8 {
			t.Fatalf("ADCBits = %d; the guard is stated for 8-bit converters", bits)
		}
		for i, v := range wStar {
			values++
			worst = math.Max(worst, math.Abs(sol.W[i]-v)/lsb)
			want := readoutRange * quantize(clamp(v, 1), bits)
			x := clamp(v, 1) / lsb
			if math.Abs(x-math.Floor(x)-0.5) < oracleGuardLSB {
				guarded++
				continue
			}
			if sol.U[i] != want {
				t.Errorf("n=%d s=%d value %d: readout %v, equilibrium %v reads %v (%.3f LSB from a boundary)",
					n, s, i, sol.U[i], v, want, math.Abs(x-math.Floor(x)-0.5))
			}
		}
	})
	t.Logf("%d settled runs, %d values, %d within %.2f LSB of a boundary; max |W − w*| = %.4f LSB",
		settled, values, guarded, oracleGuardLSB, worst)
	if worst >= oracleGuardLSB {
		t.Errorf("a settled state lies %.4f LSB from its equilibrium, outside the %.2f LSB guard", worst, oracleGuardLSB)
	}
	if settled < 50 {
		t.Fatalf("only %d of 60 runs settled; the oracle judges settled runs", settled)
	}
	if float64(guarded) > oracleGuardShare*float64(values) {
		t.Fatalf("%d of %d values excused by the guard band, more than %.0f %%", guarded, values, 100*oracleGuardShare)
	}
}
