package exp

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"

	"hybridpde/internal/analog"
)

var quickCfg = Config{Quick: true, Seed: 3}

func TestTable1Quick(t *testing.T) {
	r, err := Table1(context.Background(), quickCfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 4 {
		t.Fatalf("Table 1 must have 4 rows, got %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.Report.KernelFraction <= 0 || row.Report.KernelFraction >= 1 {
			t.Fatalf("workload %q kernel share %.2f out of range", row.Report.Problem, row.Report.KernelFraction)
		}
	}
	if !strings.Contains(r.String(), "Bi-CGstab") {
		t.Fatal("rendering must include kernels")
	}
}

func TestTable1FullScaleOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale workload profile (≈1 min); run without -short")
	}
	// The property Table 1 demonstrates: structured-grid (FD) solvers are
	// more kernel-dominated than finite-volume/finite-element solvers,
	// whose assembly dilutes the share. At quick scale the sections run in
	// microseconds and timer noise dominates, so the ordering is asserted
	// only at full scale.
	r, err := Table1(context.Background(), Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	fdMin := min(r.Rows[0].Report.KernelFraction, r.Rows[1].Report.KernelFraction)
	fvMax := max(r.Rows[2].Report.KernelFraction, r.Rows[3].Report.KernelFraction)
	if fdMin <= fvMax {
		t.Fatalf("FD workloads (min %.2f) should be more solver-bound than FV/FE (max %.2f)", fdMin, fvMax)
	}
}

func TestTable2Quick(t *testing.T) {
	r, err := Table2(context.Background(), quickCfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) < 4 {
		t.Fatalf("Table 2 needs a Reynolds sweep, got %d rows", len(r.Rows))
	}
	first, last := r.Rows[0], r.Rows[len(r.Rows)-1]
	if first.Nonlinearity != "semilinear" {
		t.Fatalf("lowest Re should be diffusion-dominated, got %q", first.Dominant)
	}
	if last.Nonlinearity != "quasilinear" {
		t.Fatalf("highest Re should be advection-dominated, got %q", last.Dominant)
	}
}

func TestTable3Quick(t *testing.T) {
	r := Table3(context.Background(), quickCfg)
	s := r.String()
	for _, want := range []string{"nonlinear function", "Jacobian matrix", "quotient feedback loop", "Newton method feedback loop", "total"} {
		if !strings.Contains(s, want) {
			t.Fatalf("Table 3 rendering missing %q", want)
		}
	}
}

func TestTable4Quick(t *testing.T) {
	r, err := Table4(context.Background(), quickCfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 5 {
		t.Fatalf("Table 4 must have 5 rows, got %d", len(r.Rows))
	}
	if r.Rows[4].Variables != 512 {
		t.Fatalf("16×16 row should have 512 variables, got %d", r.Rows[4].Variables)
	}
}

// checkPPMs asserts that paths names two files and that each starts with a
// binary PPM header.
func checkPPMs(t *testing.T, paths []string) {
	t.Helper()
	if len(paths) != 2 {
		t.Fatalf("wrote %d images (%v), want 2", len(paths), paths)
	}
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(string(b), "P6") {
			t.Fatalf("%s does not start with a P6 header", p)
		}
	}
}

func TestFig2Quick(t *testing.T) {
	cfg := quickCfg
	cfg.OutDir = t.TempDir()
	r, err := Fig2(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkPPMs(t, r.Paths)
	if r.AnalogRootsFound != 3 {
		t.Fatalf("chip should reach all 3 cubic roots, found %d", r.AnalogRootsFound)
	}
	if r.Failures != 0 {
		t.Fatalf("%d chip runs settled nowhere or on a wrong result; the paper's chip settles on a root from every start", r.Failures)
	}
	// The paper's claim: continuous Newton basins are contiguous, digital
	// Newton's are fractal. Measured 0.0775 against 0.2004 here (0.0070
	// against 0.0534 at full scale), so a factor of two leaves room for
	// a fabric-model change and still fails if the basins interleave.
	if r.AnalogBoundary > 0.5*r.DigitalBoundary {
		t.Fatalf("chip basin boundary %.4f should be at most half of digital Newton's %.4f",
			r.AnalogBoundary, r.DigitalBoundary)
	}
}

func TestFig3Quick(t *testing.T) {
	cfg := quickCfg
	cfg.OutDir = t.TempDir()
	r, err := Fig3(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkPPMs(t, r.Paths)
	if len(r.Roots) != 2 {
		t.Fatalf("the chip should reach both real roots of the Equation-2 instance, reached %d", len(r.Roots))
	}
	total := r.Pixels * r.Pixels
	// Homotopy mode ends on a root from every start (Figure 3, far right).
	if r.HomotopyWrong != 0 {
		t.Fatalf("homotopy wrong pixels %d of %d, want none", r.HomotopyWrong, total)
	}
	// Plain continuous Newton ends wrong on a large share of the plane:
	// measured 34.0 % here (33.1 % at full scale); 20 % still reads as
	// the centre-left panel's large pink region.
	if 5*r.PlainWrong < total {
		t.Fatalf("plain continuous Newton wrong on %d of %d pixels, want at least 20%%", r.PlainWrong, total)
	}
}

// A cancelled context must stop the two basin sweeps, not be painted as
// no-convergence pixels (Fig2) or ignored (Fig3).
func TestBasinSweepsHonourCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r2, err := Fig2(ctx, quickCfg)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Fig2 under a cancelled context: got %v, want context.Canceled", err)
	}
	if r2.AnalogRootsFound != 0 || r2.Failures != 0 {
		t.Fatalf("Fig2 kept sweeping after cancellation: %d roots, %d failures", r2.AnalogRootsFound, r2.Failures)
	}
	r3, err := Fig3(ctx, quickCfg)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Fig3 under a cancelled context: got %v, want context.Canceled", err)
	}
	if len(r3.Roots) != 0 || r3.PlainWrong != 0 || r3.HomotopyWrong != 0 {
		t.Fatalf("Fig3 kept sweeping after cancellation: %+v", r3.Roots)
	}
}

// fig6RMSTol is the paper-shape gate's relative tolerance on Figure 6's
// total RMS error around the paper's 5.38 % (quick reads 5.21 %, the full
// 400-trial run 5.33 %). It is wide enough for a fabric-model change that
// moves individual readouts by an LSB and narrow enough that a
// miscalibrated mismatch model (a doubled offset sigma, say) fails.
const fig6RMSTol = 0.25

// TestFig6Quick asserts Figure 6's shape: the total RMS error lies within
// fig6RMSTol of the paper's figure, and the per-trial error distribution
// is unimodal, non-decreasing up to its first peak and non-increasing after.
func TestFig6Quick(t *testing.T) {
	r, err := Fig6(context.Background(), quickCfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Solved < r.Trials/2 {
		t.Fatalf("too few solved trials: %d of %d", r.Solved, r.Trials)
	}
	if lo, hi := r.PaperRMSPct*(1-fig6RMSTol), r.PaperRMSPct*(1+fig6RMSTol); r.TotalRMSPct < lo || r.TotalRMSPct > hi {
		t.Fatalf("total RMS %.2f%% outside [%.2f%%, %.2f%%] (paper: %.2f%%)", r.TotalRMSPct, lo, hi, r.PaperRMSPct)
	}
	counts := r.Histogram.Counts
	mode := 0
	for i, c := range counts {
		if c > counts[mode] {
			mode = i
		}
	}
	for i := 1; i < len(counts); i++ {
		if rising := i <= mode; rising && counts[i] < counts[i-1] || !rising && counts[i] > counts[i-1] {
			t.Fatalf("error histogram is not unimodal around bin %d: %v", mode, counts)
		}
	}
}

// tauTol is the paper-shape gate's tolerance on analog settle time: an
// integrator or quotient-loop change may move any run's τ, and so every
// analog time and energy of Figures 7 and 9, by up to ±25 % without
// changing what the figures claim. (Holding one quotient-loop factor per
// integrator step moved τ by −12 % to +15 % per problem.) Each inequality
// below holds for every τ inside that band, not only at the recorded one.
const tauTol = 0.25

// TestFig7Quick asserts Figure 7's shape with tauTol on the analog side:
//   - flat analog time: across every solved (grid, Re) point the analog
//     time spans less than a factor 2, while the digital time grows;
//   - the crossover at 4×4: at every Re the analog side wins at 4×4 even
//     with its time raised by tauTol, and the speedup grows from 2×2 to
//     4×4 by more than τ's band (1+tauTol)/(1−tauTol) could produce. The
//     analog side already wins at 2×2, in the quick and in the full sweep
//     (EXPERIMENTS.md), so the crossover itself, below 4×4, is not
//     asserted.
func TestFig7Quick(t *testing.T) {
	r, err := Fig7(context.Background(), quickCfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) == 0 {
		t.Fatal("no Fig 7 points")
	}
	lo, hi := math.Inf(1), 0.0
	speedup := map[int]map[float64]float64{}
	for _, p := range r.Points {
		if p.Solved == 0 {
			continue
		}
		// Figure 7's analog band: tens of microseconds.
		if p.AnalogMeanS > 1e-3 || p.AnalogMeanS < 1e-7 {
			t.Fatalf("analog settle time %g s outside the paper's 10⁻⁵–10⁻⁴ band scale", p.AnalogMeanS)
		}
		lo, hi = math.Min(lo, p.AnalogMeanS), math.Max(hi, p.AnalogMeanS)
		if speedup[p.GridN] == nil {
			speedup[p.GridN] = map[float64]float64{}
		}
		speedup[p.GridN][p.Re] = p.DigitalMeanS / p.AnalogMeanS
	}
	if hi == 0 {
		t.Fatal("no point solved in quick Fig 7")
	}
	if hi > 2*lo {
		t.Errorf("analog time not flat: %g … %g s", lo, hi)
	}
	band := (1 + tauTol) / (1 - tauTol)
	for re, s4 := range speedup[4] {
		if s4 < 1+tauTol {
			t.Errorf("4×4 Re=%g: speedup %.2f×; the analog side must win by more than τ's %.0f %%", re, s4, 100*tauTol)
		}
		s2, ok := speedup[2][re]
		if !ok {
			t.Fatalf("Re=%g solved at 4×4 but not at 2×2", re)
		}
		if s4 < band*s2 {
			t.Errorf("Re=%g: speedup %.2f× at 2×2 → %.2f× at 4×4; it must grow by more than %.2f×", re, s2, s4, band)
		}
	}
	if len(speedup[4]) == 0 {
		t.Fatal("no 4×4 point solved")
	}
}

// TestFabricSettlesOnHardProblems holds how often the fabric settles on
// hard planted-root problems, Figure 7's protocol at Re = 2 (field ±3,
// DynamicRange 4.5): 12 problems each at 8×8 and 16×16. How the simulation
// solves the quotient loop may move settle times but must not cost settled
// runs; with a fresh factor at every evaluation 10 of 12 settle at each
// size, and a factor held for a whole integrator step without refinement
// settled 9 and 5.
func TestFabricSettlesOnHardProblems(t *testing.T) {
	const (
		re, bound = 2.0, 3.0
		trials    = 12
	)
	for _, c := range []struct{ n, want int }{{8, 10}, {16, 10}} {
		acc, err := analog.NewScaled(c.n, 1)
		if err != nil {
			t.Fatal(err)
		}
		settled := 0
		for tr := 0; tr < trials; tr++ {
			rng := rand.New(rand.NewSource(int64(991*c.n + 17*tr + 100*re)))
			b, _, u0, err := plantedBurgers(c.n, re, bound, rng)
			if err != nil {
				t.Fatal(err)
			}
			sol, err := acc.SolveSparse(context.Background(), b, u0, analog.SolveOptions{DynamicRange: 1.5 * bound})
			if err != nil {
				t.Fatal(err)
			}
			if sol.Converged {
				settled++
			}
		}
		if settled < c.want {
			t.Errorf("%d×%d Re=%g: %d of %d runs settled, want at least %d", c.n, c.n, re, settled, trials, c.want)
		}
	}
}

func TestFig8Quick(t *testing.T) {
	r, err := Fig8(context.Background(), quickCfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) == 0 {
		t.Fatal("no Fig 8 points")
	}
	for _, p := range r.Points {
		if p.Solved == 0 {
			continue
		}
		if p.BaselineMeanS <= 0 || p.SeededMeanS <= 0 {
			t.Fatalf("missing timings in %+v", p)
		}
	}
}

// TestFig9Quick asserts Figure 9's shape with tauTol on the analog seed:
// the time and energy reductions grow from 4×4 to 8×8, and at each size
// the energy reduction is at least the time reduction. Each comparison
// takes the analog seed's time and energy at the end of τ's band that
// works against it.
func TestFig9Quick(t *testing.T) {
	r, err := Fig9(context.Background(), quickCfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Sizes) != 2 {
		t.Fatalf("Fig 9 needs two problem sizes, got %d", len(r.Sizes))
	}
	if !r.Sizes[1].Decomposed {
		t.Fatal("the oversize problem must use the red-black decomposition")
	}
	if r.Sizes[0].Decomposed {
		t.Fatal("the in-capacity problem must not decompose")
	}
	for _, s := range r.Sizes {
		if s.Solved == 0 {
			t.Fatalf("no solved trials at %d×%d", s.GridN, s.GridN)
		}
		// The analog stage must be negligible next to the digital stage,
		// the paper's "time and energy spent in the analog hardware is
		// negligible" claim.
		if s.AnalogMeanS > s.SeededMeanS {
			t.Fatalf("analog stage %g s should be far below digital %g s", s.AnalogMeanS, s.SeededMeanS)
		}
	}
	// reduction is baseline/(seeded digital + analog·k), the reduction
	// with the analog seed's share scaled by k ∈ [1−tauTol, 1+tauTol].
	reduction := func(baseline, analog, seeded, k float64) float64 { return baseline / (seeded + k*analog) }
	timeLo := func(s Fig9Size) float64 { return reduction(s.BaselineMeanS, s.AnalogMeanS, s.SeededMeanS, 1+tauTol) }
	timeHi := func(s Fig9Size) float64 { return reduction(s.BaselineMeanS, s.AnalogMeanS, s.SeededMeanS, 1-tauTol) }
	energyLo := func(s Fig9Size) float64 { return reduction(s.BaselineMeanJ, s.AnalogMeanJ, s.SeededMeanJ, 1+tauTol) }
	energyHi := func(s Fig9Size) float64 { return reduction(s.BaselineMeanJ, s.AnalogMeanJ, s.SeededMeanJ, 1-tauTol) }
	small, large := r.Sizes[0], r.Sizes[1]
	if timeLo(large) <= timeHi(small) || energyLo(large) <= energyHi(small) {
		t.Errorf("reduction does not grow with size: time %.3f× → %.3f×, energy %.3f× → %.3f×",
			small.TimeReduction, large.TimeReduction, small.EnergyReduction, large.EnergyReduction)
	}
	for _, s := range r.Sizes {
		if energyLo(s) < timeHi(s) {
			t.Errorf("%d×%d: energy reduction %.4f× below time reduction %.4f×", s.GridN, s.GridN, s.EnergyReduction, s.TimeReduction)
		}
	}
}

func TestCSVExports(t *testing.T) {
	f7, err := Fig7(context.Background(), quickCfg)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(f7.CSV(), "grid,re,") {
		t.Fatal("Fig7 CSV header missing")
	}
	if strings.Count(f7.CSV(), "\n") != len(f7.Points)+1 {
		t.Fatal("Fig7 CSV row count mismatch")
	}
	dir := t.TempDir()
	p, err := WriteCSV(dir, "fig7", f7)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(p); err != nil {
		t.Fatalf("CSV not written: %v", err)
	}
}

func TestAblationsQuick(t *testing.T) {
	r, err := Ablations(context.Background(), quickCfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.SeededIters == 0 || r.ColdIters == 0 {
		t.Fatalf("seeding ablation did not run: %+v", r)
	}
	if r.SeededIters > r.ColdIters {
		t.Fatalf("seeded polish (%d iters) should not exceed cold start (%d)", r.SeededIters, r.ColdIters)
	}
	if r.Order4NNZ <= r.Order2NNZ {
		t.Fatal("order-4 stencil must have more Jacobian nonzeros")
	}
	// Coarser converters must not give better accuracy than finer ones.
	if r.BitsRMS[4] < r.BitsRMS[12] {
		t.Fatalf("4-bit RMS %.2f%% should be worse than 12-bit %.2f%%", r.BitsRMS[4], r.BitsRMS[12])
	}
	if !strings.Contains(r.String(), "converter resolution") {
		t.Fatal("rendering incomplete")
	}
}
