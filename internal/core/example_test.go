package core_test

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"hybridpde/internal/analog"
	"hybridpde/internal/core"
	"hybridpde/internal/pde"
)

// Example solves one Crank–Nicolson step of the 2-D viscous Burgers'
// equation with the hybrid analog-digital pipeline. The flow mirrors the
// paper's programming sample (Figure 4): bring up the analog fabric, load a
// problem, let the continuous Newton circuit settle, and polish the
// approximate analog answer with a digital Newton solver.
//
// Run with: go test -run '^Example$' -v ./internal/core
func Example() {
	// A 2×2 Burgers step problem — exactly what the physical two-chip
	// prototype board can hold (one scalar variable per tile).
	problem, err := pde.RandomBurgers(2, 1.0, 3.0, rand.New(rand.NewSource(7)))
	if err != nil {
		log.Fatal(err)
	}

	// Power up and calibrate the analog accelerator model.
	accel := analog.NewPrototype(1)
	fmt.Printf("analog board: %d scalar variables, %.2f mm², %.2f mW peak\n",
		accel.Capacity(), accel.AreaMM2(), 1e3*accel.PeakPowerWatts(accel.Capacity()))

	// Hybrid solve: analog seed → digital Newton polish. AnalogSeeder picks
	// a direct or red-black decomposed analog stage by capacity.
	report, err := core.Solve(context.Background(), problem, core.Options{Seeder: core.AnalogSeeder(accel)})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("analog seed used: %t\n", report.AnalogUsed)
	fmt.Printf("digital stage: %d Newton iterations at damping %.2f\n",
		report.Digital.Iterations, report.Digital.DampingUsed)
	// The last bits of the residual depend on the platform's rounding, so
	// the example prints a bound rather than the value.
	fmt.Printf("final ‖F‖ < 1e-12: %t\n", report.FinalResidual < 1e-12)
	for i := 0; i < problem.N; i++ {
		for j := 0; j < problem.N; j++ {
			k := 2 * (i*problem.N + j)
			fmt.Printf("node (%d,%d): u = %+.6f  v = %+.6f\n", i, j, report.U[k], report.U[k+1])
		}
	}
	// Output:
	// analog board: 8 scalar variables, 5.51 mm², 6.10 mW peak
	// analog seed used: true
	// digital stage: 4 Newton iterations at damping 1.00
	// final ‖F‖ < 1e-12: true
	// node (0,0): u = -0.815000  v = +2.639316
	// node (0,1): u = +0.024408  v = +0.698507
	// node (1,0): u = +2.508673  v = +1.590906
	// node (1,1): u = -1.502623  v = -0.805876
}
