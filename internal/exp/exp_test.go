package exp

import (
	"context"
	"errors"
	"os"
	"strings"
	"testing"
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

func TestFig2Quick(t *testing.T) {
	r, err := Fig2(context.Background(), quickCfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.AnalogRootsFound != 3 {
		t.Fatalf("chip should reach all 3 cubic roots, found %d", r.AnalogRootsFound)
	}
	// The paper's claim: continuous Newton basins are more contiguous.
	if r.AnalogBoundary > r.DigitalBoundary+0.02 {
		t.Fatalf("chip basins (boundary %.3f) should not be more fragmented than digital (%.3f)",
			r.AnalogBoundary, r.DigitalBoundary)
	}
}

func TestFig3Quick(t *testing.T) {
	r, err := Fig3(context.Background(), quickCfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Roots) < 1 {
		t.Fatal("no roots discovered on the chip")
	}
	total := r.Pixels * r.Pixels
	// Homotopy must eliminate (nearly) all wrong-result pixels.
	if r.HomotopyWrong > total/20 {
		t.Fatalf("homotopy wrong pixels %d of %d — should be near zero", r.HomotopyWrong, total)
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

func TestFig6Quick(t *testing.T) {
	r, err := Fig6(context.Background(), quickCfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Solved < r.Trials/2 {
		t.Fatalf("too few solved trials: %d of %d", r.Solved, r.Trials)
	}
	if r.TotalRMSPct < 0.5 || r.TotalRMSPct > 15 {
		t.Fatalf("total RMS %.2f%% implausible (paper: 5.38%%)", r.TotalRMSPct)
	}
}

func TestFig7Quick(t *testing.T) {
	r, err := Fig7(context.Background(), quickCfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) == 0 {
		t.Fatal("no Fig 7 points")
	}
	solvedAny := false
	for _, p := range r.Points {
		if p.Solved > 0 {
			solvedAny = true
			if p.AnalogMeanS <= 0 {
				t.Fatalf("analog time missing for solved point %+v", p)
			}
			// Figure 7's analog band: tens of microseconds.
			if p.AnalogMeanS > 1e-3 || p.AnalogMeanS < 1e-7 {
				t.Fatalf("analog settle time %g s outside the paper's 10⁻⁵–10⁻⁴ band scale", p.AnalogMeanS)
			}
		}
	}
	if !solvedAny {
		t.Fatal("no point solved in quick Fig 7")
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
