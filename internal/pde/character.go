package pde

import (
	"fmt"
	"math"
)

// Character classifies the dominant behaviour of the Burgers operator at a
// given Reynolds number, reproducing Table 2 of the paper.
type Character struct {
	Re float64
	// AdvectiveMagnitude and DiffusiveMagnitude are RMS magnitudes of the
	// first-order advective and second-order diffusive terms measured on a
	// reference field.
	AdvectiveMagnitude float64
	DiffusiveMagnitude float64
	// Dominant is "first-order, advective (hyperbolic PDE)" or
	// "second-order, diffusive (parabolic PDE)".
	Dominant string
	// Nonlinearity is "quasilinear" (advection-dominated) or "semilinear".
	Nonlinearity string
	// ViscosityLabel and DiffusionLabel reproduce the qualitative columns.
	ViscosityLabel string
	DiffusionLabel string
}

// CharacterFor measures the operator balance of a Burgers problem on its
// current fields. Larger Reynolds numbers weaken the diffusive term,
// shifting the PDE from parabolic to hyperbolic character (Table 2).
func CharacterFor(b *Burgers) Character {
	w := b.InitialGuess()
	get := func(c, i, j int) float64 { return b.stateAt(w, c, i, j) }
	var advSq, diffSq float64
	count := 0
	for i := 0; i < b.N; i++ {
		for j := 0; j < b.N; j++ {
			for c := 0; c < 2; c++ {
				u := get(0, i, j)
				v := get(1, i, j)
				cE := get(c, i+1, j)
				cW := get(c, i-1, j)
				cN := get(c, i, j+1)
				cS := get(c, i, j-1)
				cC := get(c, i, j)
				adv := u*(cE-cW)/2 + v*(cN-cS)/2
				diff := (cE + cW + cN + cS - 4*cC) / b.Re
				advSq += adv * adv
				diffSq += diff * diff
				count++
			}
		}
	}
	ch := Character{
		Re:                 b.Re,
		AdvectiveMagnitude: math.Sqrt(advSq / float64(count)),
		DiffusiveMagnitude: math.Sqrt(diffSq / float64(count)),
	}
	if ch.AdvectiveMagnitude > ch.DiffusiveMagnitude {
		ch.Dominant = "first-order, advective (hyperbolic PDE)"
		ch.Nonlinearity = "quasilinear"
		ch.ViscosityLabel = "low"
		ch.DiffusionLabel = "small"
	} else {
		ch.Dominant = "second-order, diffusive (parabolic PDE)"
		ch.Nonlinearity = "semilinear"
		ch.ViscosityLabel = "high"
		ch.DiffusionLabel = "large"
	}
	return ch
}

// String renders one Table 2 row.
func (c Character) String() string {
	return fmt.Sprintf("Re=%-8.3g viscosity=%-4s diffusion=%-5s dominant=%q nonlinearity=%s",
		c.Re, c.ViscosityLabel, c.DiffusionLabel, c.Dominant, c.Nonlinearity)
}
