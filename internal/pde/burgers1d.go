package pde

import (
	"fmt"
	"math"
	"math/rand"

	"hybridpde/internal/la"
	"hybridpde/internal/problem"
)

// Burgers1D is one Crank–Nicolson step of the one-dimensional viscous
// Burgers' equation u_t + u·u_x − (1/Re)·u_xx = RHS on N interior nodes
// with Dirichlet ends. §7 notes that "all practical PDE solvers decouple
// the problem dimensions and solve the problem in one or two dimensions at
// a time"; this is the one-dimensional member of that family, with a
// tridiagonal Jacobian (the paper's linear-algebra predecessor [22, 23]
// benchmarked exactly such systems).
type Burgers1D struct {
	N  int
	Re float64
	// UPrev is the previous time level, length N.
	UPrev []float64
	// Left and Right are the Dirichlet end values.
	Left, Right float64
	// RHS is the forcing, length N.
	RHS []float64

	cache jacCache
}

// NewBurgers1D allocates a zero problem.
func NewBurgers1D(n int, re float64) (*Burgers1D, error) {
	if n < 1 {
		return nil, fmt.Errorf("pde: grid size %d must be ≥ 1", n)
	}
	if re <= 0 {
		return nil, fmt.Errorf("pde: Reynolds number %g must be positive", re)
	}
	return &Burgers1D{N: n, Re: re, UPrev: make([]float64, n), RHS: make([]float64, n)}, nil
}

// RandomBurgers1D draws fields, ends and forcing from ±bound.
func RandomBurgers1D(n int, re, bound float64, rng *rand.Rand) (*Burgers1D, error) {
	b, err := NewBurgers1D(n, re)
	if err != nil {
		return nil, err
	}
	u := func() float64 { return bound * (2*rng.Float64() - 1) }
	for i := range b.UPrev {
		b.UPrev[i] = u()
		b.RHS[i] = u()
	}
	b.Left, b.Right = u(), u()
	return b, nil
}

// Dim returns the number of unknowns.
func (b *Burgers1D) Dim() int { return b.N }

// PolynomialDegree reports the quadratic nonlinearity.
func (b *Burgers1D) PolynomialDegree() int { return 2 }

// at reads position i from w with Dirichlet fallback.
func (b *Burgers1D) at(w []float64, i int) float64 {
	switch {
	case i < 0:
		return b.Left
	case i >= b.N:
		return b.Right
	default:
		return w[i]
	}
}

// opA evaluates u·u_x − u_xx/Re at node i on field w.
func (b *Burgers1D) opA(w []float64, i int) float64 {
	uC := b.at(w, i)
	uE := b.at(w, i+1)
	uW := b.at(w, i-1)
	return float64(uC*(uE-uW)/2) - (uE-float64(2*uC)+uW)/b.Re
}

// Eval computes F(w) = w − w_prev + ½[A(w) + A(w_prev)] − RHS.
//
//pdevet:noalloc
func (b *Burgers1D) Eval(w, f []float64) error {
	if len(w) != b.N || len(f) != b.N {
		return fmt.Errorf("pde: Burgers1D Eval dimension mismatch") //pdevet:allow noalloc error path
	}
	for i := 0; i < b.N; i++ {
		f[i] = w[i] - b.UPrev[i] + float64(0.5*(b.opA(w, i)+b.opA(b.UPrev, i))) - b.RHS[i]
	}
	return nil
}

// assembleJacobian walks the tridiagonal stencil in deterministic order.
//
//pdevet:noalloc
func (b *Burgers1D) assembleJacobian(w []float64, e jacEmitter) {
	for i := 0; i < b.N; i++ {
		uC := b.at(w, i)
		uE := b.at(w, i+1)
		uW := b.at(w, i-1)
		e.emit(i, i, 1+float64(0.5*(float64((uE-uW)/2)+2/b.Re)))
		if i > 0 {
			e.emit(i, i-1, 0.5*(float64(-uC/2)-1/b.Re))
		}
		if i < b.N-1 {
			e.emit(i, i+1, 0.5*(float64(uC/2)-1/b.Re))
		}
	}
}

// JacobianCSR returns the tridiagonal Jacobian, refreshing a cached pattern.
//
//pdevet:noalloc
func (b *Burgers1D) JacobianCSR(w []float64) (*la.CSR, error) {
	if len(w) != b.N {
		return nil, fmt.Errorf("pde: Burgers1D Jacobian dimension mismatch") //pdevet:allow noalloc error path
	}
	if b.cache.jac == nil {
		b.cache.build(b.N, func(e jacEmitter) { b.assembleJacobian(w, e) }) //pdevet:allow noalloc grow-on-first-use
		return b.cache.jac, nil
	}
	b.cache.beginRefresh()
	b.assembleJacobian(w, &b.cache)
	return b.cache.jac, nil
}

// InitialGuess returns the warm start (previous time level).
func (b *Burgers1D) InitialGuess() []float64 { return la.Copy(b.UPrev) }

// InitialGuessInto writes the previous time level into w without allocating.
func (b *Burgers1D) InitialGuessInto(w []float64) { copy(w, b.UPrev) }

// Advance installs a solved step as the new previous level.
func (b *Burgers1D) Advance(w []float64) error {
	if len(w) != b.N {
		return fmt.Errorf("pde: Advance dimension mismatch")
	}
	copy(b.UPrev, w)
	return nil
}

// MaxField returns the largest |value| across the previous field, forcing
// and end values — the dynamic range the analog scaler needs.
func (b *Burgers1D) MaxField() float64 {
	m := math.Max(math.Abs(b.Left), math.Abs(b.Right))
	for i := range b.UPrev {
		if a := math.Abs(b.UPrev[i]); a > m {
			m = a
		}
		if a := math.Abs(b.RHS[i]); a > m {
			m = a
		}
	}
	return m
}

// Tiles implements problem.Decomposable: contiguous red-black blocks of the
// chain, each fitting in maxVars accelerator variables, using the largest
// dividing block of at least two nodes.
func (b *Burgers1D) Tiles(maxVars int) ([]problem.Tile, error) {
	block, err := problem.LargestDividingTile(b.N, maxVars)
	if err != nil {
		return nil, fmt.Errorf("pde: cannot tile %d-node chain for %d-variable accelerator: %w", b.N, maxVars, err)
	}
	return problem.Blocks1D(b.N, block)
}

var (
	_ problem.SparseSystem = (*Burgers1D)(nil)
	_ problem.Decomposable = (*Burgers1D)(nil)
)

// SetRHSForRoot plants wRoot as an exact solution (evaluation protocol).
func (b *Burgers1D) SetRHSForRoot(wRoot []float64) error {
	if len(wRoot) != b.N {
		return fmt.Errorf("pde: SetRHSForRoot dimension mismatch")
	}
	la.Fill(b.RHS, 0)
	f := make([]float64, b.N)
	if err := b.Eval(wRoot, f); err != nil {
		return err
	}
	copy(b.RHS, f)
	return nil
}
