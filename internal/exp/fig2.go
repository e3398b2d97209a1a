package exp

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"strings"

	"hybridpde/internal/analog"
	"hybridpde/internal/img"
	"hybridpde/internal/la"
	"hybridpde/internal/nonlin"
)

// cubicSystem returns z³ − 1 = 0 as a 2-D real system with degree 3, the
// tutorial problem of §2 (Equation 1).
func cubicSystem() analog.PolySystem {
	c := la.NewCOO(2, 2)
	for k := 0; k < 4; k++ {
		c.Append(k/2, k%2, 0)
	}
	return analog.PolySystem{Degree: 3, SparseSystem: cubic{jac: c.ToCSR()}}
}

// cubic is z³ − 1 in (re, im). Its Jacobian 3z² is the block [[a, −b],
// [b, a]] with a = 3(re² − im²) and b = 6·re·im, refreshed in place.
type cubic struct{ jac *la.CSR }

func (cubic) Dim() int { return 2 }

func (cubic) Eval(u, f []float64) error {
	re, im := u[0], u[1]
	f[0] = float64(re*re*re) - float64(3*re*im*im) - 1
	f[1] = float64(3*re*re*im) - float64(im*im*im)
	return nil
}

func (c cubic) JacobianCSR(u []float64) (*la.CSR, error) {
	re, im := u[0], u[1]
	a := 3 * (float64(re*re) - float64(im*im))
	b := 6 * re * im
	for slot, v := range [4]float64{a, -b, b, a} {
		c.jac.SetSlotValue(slot, v)
	}
	return c.jac, nil
}

var cubicRootList = [3][2]float64{
	{1, 0},
	{-0.5, math.Sqrt(3) / 2},
	{-0.5, -math.Sqrt(3) / 2},
}

// classifyCubic maps a settled state to a root index, or −1 when it is not
// near any root (the "wrong result" outcome).
func classifyCubic(u []float64, tol float64) int {
	for k, r := range cubicRootList {
		if math.Hypot(u[0]-r[0], u[1]-r[1]) <= tol {
			return k
		}
	}
	return -1
}

// Fig2Result reproduces Figure 2: the convergence basins of the continuous
// Newton method on the analog chip, compared with the fractal basins of the
// classical digital Newton method over the same initial-condition plane.
type Fig2Result struct {
	Pixels int
	// Basin images over the initial-condition plane [−2,2]².
	Analog  *img.Image
	Digital *img.Image
	// Fragmentation metrics (share of neighbouring pixel pairs that
	// disagree); the paper's claim is AnalogBoundary ≪ DigitalBoundary.
	AnalogBoundary  float64
	DigitalBoundary float64
	// Root coverage: every root must be reachable on the chip.
	AnalogRootsFound int
	// Failures counts chip runs that settled nowhere.
	Failures int
	// Written image paths, when Config.OutDir was set.
	Paths []string
}

// Fig2 sweeps the 2-D plane of initial conditions, solving Equation 1 on
// the chip model (continuous Newton) and with classical digital Newton.
func Fig2(ctx context.Context, cfg Config) (Fig2Result, error) {
	pixels := pick(cfg, 256, 24)
	res := Fig2Result{Pixels: pixels}
	res.Analog = img.New(pixels, pixels)
	res.Digital = img.New(pixels, pixels)
	acc := analog.NewPrototype(cfg.Seed)
	sys := cubicSystem()
	var digital nonlin.SparseSolver
	rootsSeen := map[int]bool{}
	const span = 2.0
	for py := 0; py < pixels; py++ {
		if err := ctx.Err(); err != nil {
			return res, fmt.Errorf("exp: fig2 sweep aborted at row %d of %d: %w", py, pixels, err)
		}
		imag := span - 2*span*float64(py)/float64(pixels-1) // top = +2i
		for px := 0; px < pixels; px++ {
			real := -span + 2*span*float64(px)/float64(pixels-1)
			u0 := []float64{real, imag}

			sol, err := acc.SolveSparse(ctx, sys, u0, analog.SolveOptions{DynamicRange: span, TMaxTau: 120})
			var aCol img.Color
			switch {
			case err != nil || !sol.Converged:
				aCol = img.NoConverge
				res.Failures++
			default:
				k := classifyCubic(sol.U, 0.45)
				if k < 0 {
					aCol = img.WrongPink
					res.Failures++
				} else {
					rootsSeen[k] = true
					aCol = img.RootPalette(k)
				}
			}
			res.Analog.Set(px, py, aCol)

			dres, derr := digital.Solve(ctx, sys, u0, nonlin.NewtonOptions{Tol: 1e-10, MaxIter: 60})
			var dCol img.Color
			if derr != nil || !dres.Converged {
				dCol = img.NoConverge
			} else if k := classifyCubic(dres.U, 1e-3); k >= 0 {
				dCol = img.RootPalette(k)
			} else {
				dCol = img.WrongPink
			}
			res.Digital.Set(px, py, dCol)
		}
	}
	res.AnalogRootsFound = len(rootsSeen)
	res.AnalogBoundary = res.Analog.BoundaryFraction()
	res.DigitalBoundary = res.Digital.BoundaryFraction()
	if cfg.OutDir != "" {
		for _, out := range []struct {
			name string
			im   *img.Image
		}{{"fig2_analog_continuous_newton.ppm", res.Analog}, {"fig2_digital_classical_newton.ppm", res.Digital}} {
			p := filepath.Join(cfg.OutDir, out.name)
			if err := out.im.WritePPM(p); err != nil {
				return res, err
			}
			res.Paths = append(res.Paths, p)
		}
	}
	return res, nil
}

// String summarises the basin comparison.
func (r Fig2Result) String() string {
	var b strings.Builder
	b.WriteString(header("Figure 2: continuous Newton basins for z³ = 1 (chip) vs classical Newton"))
	fmt.Fprintf(&b, "grid: %d×%d initial conditions on [−2,2]²\n", r.Pixels, r.Pixels)
	fmt.Fprintf(&b, "roots reachable on chip:        %d of 3\n", r.AnalogRootsFound)
	fmt.Fprintf(&b, "chip basin boundary fraction:   %.4f (contiguous regions)\n", r.AnalogBoundary)
	fmt.Fprintf(&b, "digital basin boundary fraction:%.4f (fractal interleaving)\n", r.DigitalBoundary)
	fmt.Fprintf(&b, "chip non-settling/wrong pixels: %d\n", r.Failures)
	for _, p := range r.Paths {
		fmt.Fprintf(&b, "wrote %s\n", p)
	}
	return b.String()
}
