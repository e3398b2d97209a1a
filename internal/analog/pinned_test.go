package analog

import (
	"context"
	"encoding/binary"
	"errors"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"hybridpde/internal/nonlin"
	"hybridpde/internal/pde"
)

// solutionChecksum folds the bits of everything a fabric run computes —
// readout, raw integrator state, settle time, residual and the settled flag
// — into one word, so a change to any floating-point operation of the
// load → settle → readout pipeline, or to their order, shows up.
func solutionChecksum(sol Solution) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	for _, v := range sol.U {
		put(v)
	}
	for _, v := range sol.W {
		put(v)
	}
	put(sol.SettleTau)
	put(sol.Residual)
	if sol.Converged {
		put(1)
	} else {
		put(0)
	}
	return h.Sum64()
}

// hookInjector is a deterministic stub that perturbs the run through every
// Injector hook and counts the calls, so a pipeline that drops or reorders
// a hook changes either a count or the checksum.
type hookInjector struct {
	dead                                 int
	begin, usable, sat, dac, adc, drives int
}

func (h *hookInjector) BeginRun()                 { h.begin++ }
func (h *hookInjector) UsableTiles(total int) int { h.usable++; return total - h.dead }
func (h *hookInjector) Saturation(base float64) float64 {
	h.sat++
	return 0.5 * base
}
func (h *hookInjector) DAC(i int, v float64) float64 { h.dac++; return v + 0.01*float64(i%3) }
func (h *hookInjector) ADC(i int, v float64) float64 { h.adc++; return 1.02*v - 0.005 }
func (h *hookInjector) Drive(t float64, i int, w, d float64) float64 {
	h.drives++
	if i == 1 {
		return 0 // a stuck integrator
	}
	if t < 2 {
		d += 0.05 // an early burst
	}
	return d
}

func pinnedBurgers(t *testing.T) (*pde.Burgers, []float64) {
	t.Helper()
	b, err := pde.RandomBurgers(4, 1.0, 1.0, rand.New(rand.NewSource(24)))
	if err != nil {
		t.Fatal(err)
	}
	return b, b.InitialGuess()
}

// TestFabricRunBitsPinned holds the fabric model's two fronts (SolveSparse
// and SolveHomotopy) to golden bits. The values were recorded before the
// modes were merged onto one run and must never be edited by a refactor: a
// PR that moves them changes the paper's seed and has to say so. They were
// re-recorded on purpose three times. Once when the banded loop moved to a
// Cholesky factor and Dormand–Prince's stage 7 onto the accepted state: U
// and the residual kept their bits in every case, W and τ moved in their
// last bits (τ by at most 4e-12 relative). Once when the 2×2 cubic and the
// homotopy corner left the dense LU quotient loop for the banded one: the
// four cases with a 2×2 system kept U, the residual and Converged, and τ
// moved by at most 3e-12 relative. Once when the quotient loop began to
// hold its factor across evaluations behind a one-step refinement check:
// the four settled cases kept U, the residual and Converged, and τ moved
// by −5.1 % (cubic), −3.1 % (Burgers), −1.8 % (homotopy) and −0.2 %
// (injector); of the three MaxSteps=5 cases, read out mid-trajectory
// after five steps of a different path, the sparse and cubic ones moved U
// as well.
func TestFabricRunBitsPinned(t *testing.T) {
	check := func(name string, sol Solution, err error, converged bool, want uint64) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if sol.Converged != converged {
			t.Errorf("%s: Converged = %v, want %v", name, sol.Converged, converged)
		}
		if got := solutionChecksum(sol); got != want {
			t.Errorf("%s: checksum %#016x, want %#016x (U=%v τ=%v ‖F‖=%v)", name, got, want, sol.U, sol.SettleTau, sol.Residual)
		}
	}

	// The 2×2 tutorial cubic with every calibrated non-ideality on.
	sol, err := NewPrototype(2).SolveSparse(nil, cubic(), []float64{1.8, 0.3}, SolveOptions{DynamicRange: 2})
	check("cubic 2×2", sol, err, true, 0x2d7e267031859b44)

	// Banded quotient loop on the PDE stencil the seeder feeds it.
	b, u0 := pinnedBurgers(t)
	acc, err := NewScaled(4, 11)
	if err != nil {
		t.Fatal(err)
	}
	sol, err = acc.SolveSparse(context.Background(), b, u0, SolveOptions{DynamicRange: 1.5})
	check("sparse burgers 4×4", sol, err, true, 0x28c96d4cef98f8ac)

	// Homotopy: the banded loop fed by the λ-blend, settle gated on the ramp.
	sol, err = NewPrototype(6).SolveHomotopy(nonlin.SquareRootsSimple(2), quadPair(1, -1), []float64{1, -1},
		HomotopyOptions{Solve: SolveOptions{DynamicRange: 3, TMaxTau: 600}})
	check("homotopy corner (1,−1)", sol, err, true, 0x8fb37d8da551f3a6)

	// Every Injector hook, in the order the run consults them.
	inj := &hookInjector{}
	acc.SetInjector(inj)
	sol, err = acc.SolveSparse(nil, b, u0, SolveOptions{DynamicRange: 1.5})
	check("sparse under injector", sol, err, true, 0xbbb3e47f1f95c8d5)
	if inj.begin != 1 || inj.sat != 1 || inj.dac != len(u0) || inj.adc != len(u0) {
		t.Fatalf("hook counts: BeginRun %d, Saturation %d, DAC %d, ADC %d; want 1, 1, %d, %d", inj.begin, inj.sat, inj.dac, inj.adc, len(u0), len(u0))
	}
	if inj.usable == 0 || inj.drives == 0 || inj.drives%len(u0) != 0 {
		t.Fatalf("hook counts: UsableTiles %d, Drive %d", inj.usable, inj.drives)
	}
	if sol.W[1] != quantize(clamp(u0[1]/1.5+0.01, 1), acc.Fabric.Config.DACBits) {
		t.Fatalf("stuck integrator moved: W[1] = %v", sol.W[1])
	}
	dead := &hookInjector{dead: acc.Fabric.Capacity() - len(u0) + 1}
	acc.SetInjector(dead)
	if _, err = acc.SolveSparse(nil, b, u0, SolveOptions{DynamicRange: 1.5}); !errors.Is(err, ErrInsufficientHardware) {
		t.Fatalf("dead tiles: got %v, want ErrInsufficientHardware", err)
	}
	if dead.begin != 0 {
		t.Fatal("a run refused for capacity must not draw transient faults")
	}
	acc.SetInjector(nil)

	// Step budget exhausted: an unsettled measurement, not an error.
	sol, err = acc.SolveSparse(nil, b, u0, SolveOptions{DynamicRange: 1.5, MaxSteps: 5})
	check("sparse MaxSteps=5", sol, err, false, 0x8c4a8e5bd7753a11)
	sol, err = NewPrototype(2).SolveSparse(nil, cubic(), []float64{1.8, 0.3}, SolveOptions{DynamicRange: 2, MaxSteps: 5})
	check("cubic MaxSteps=5", sol, err, false, 0x21a03764b3a8028e)
	sol, err = NewPrototype(6).SolveHomotopy(nonlin.SquareRootsSimple(2), quadPair(1, -1), []float64{1, -1},
		HomotopyOptions{Solve: SolveOptions{DynamicRange: 3, MaxSteps: 5}})
	check("homotopy MaxSteps=5", sol, err, false, 0xb83116b0adeae566)
	if sol.SettleTau != homotopyRampTau {
		t.Fatalf("homotopy read out mid-ramp reports τ = %v, want the ramp's %v", sol.SettleTau, homotopyRampTau)
	}
}

// TestSolveSparseCancelled pins the one abort path of the fabric run: a
// cancelled context stops the circuit evolution with the context's error.
func TestSolveSparseCancelled(t *testing.T) {
	b, u0 := pinnedBurgers(t)
	acc, err := NewScaled(4, 11)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := acc.SolveSparse(ctx, b, u0, SolveOptions{DynamicRange: 1.5}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled solve: got %v, want context.Canceled", err)
	}
	// The cells go back to the fabric: the next run on the same board works.
	if _, err := acc.SolveSparse(nil, b, u0, SolveOptions{DynamicRange: 1.5, MaxSteps: 5}); err != nil {
		t.Fatalf("solve after a cancelled one: %v", err)
	}
}
