package pde

import (
	"fmt"

	"hybridpde/internal/la"
	"hybridpde/internal/par"
	"hybridpde/internal/problem"
)

// BurgersSteady is the steady method-of-lines form of a Burgers problem:
// the root system F(w) = A(w) − RHS = 0 of the semi-discrete ODE
// dw/dt = RHS − A(w) (§4.3). Old-style hybrid computers integrated that ODE
// directly in analog; the steady form is its fixed point, and is the
// workload the repeated-Newton benchmarks use (one fixed system solved many
// times, as in a pseudo-timestepping production run). It shares the wrapped
// problem's fields, boundaries and forcing but keeps its own Jacobian cache
// (the steady Jacobian lacks the Crank–Nicolson identity term).
type BurgersSteady struct {
	B *Burgers

	cache jacCache
	// rhsScratch is SetRHSForRoot's residual buffer, grown on first use so
	// repeated re-rooting (a solve service refreshing a cached problem per
	// request) stays off the allocator.
	rhsScratch []float64
	// evalRun is the persistent residual fan-out runner; the Jacobian
	// fan-out reuses the wrapped problem's runner with this cache.
	evalRun steadyEvalRun
}

// SetPool attaches a worker pool to the steady residual and Jacobian walks
// (the nonlin.PoolAware hook); it is shared with the wrapped problem's
// walks. See Burgers.SetPool for the determinism contract.
func (s *BurgersSteady) SetPool(p *par.Pool) { s.B.SetPool(p) }

// steadyEvalRun fans the steady residual across grid-row chunks.
type steadyEvalRun struct {
	s    *BurgersSteady
	w, f []float64
}

func (r *steadyEvalRun) Run(_, lo, hi int) { r.s.evalRows(r.w, r.f, lo, hi) }

// evalRows computes the steady residual of grid rows [iLo, iHi).
//
//pdevet:noalloc
func (s *BurgersSteady) evalRows(w, f []float64, iLo, iHi int) {
	b := s.B
	n := b.N
	for i := iLo; i < iHi; i++ {
		for j := 0; j < n; j++ {
			node := i*n + j
			k := 2 * node
			au, av := b.nodeOp(w, i, j)
			f[k] = au - b.RHS0[node]
			f[k+1] = av - b.RHS1[node]
		}
	}
}

// NewBurgersSteady wraps b in its steady method-of-lines form.
func NewBurgersSteady(b *Burgers) *BurgersSteady { return &BurgersSteady{B: b} }

// Dim returns the number of unknowns.
func (s *BurgersSteady) Dim() int { return s.B.Dim() }

// PolynomialDegree reports the quadratic nonlinearity.
func (s *BurgersSteady) PolynomialDegree() int { return 2 }

// Eval computes F(w) = A(w) − RHS. Its concurrency contract is
// Burgers.Eval's: without a pool, calls with distinct w and f may overlap.
//
//pdevet:noalloc
func (s *BurgersSteady) Eval(w, f []float64) error {
	b := s.B
	if len(w) != b.Dim() || len(f) != b.Dim() {
		return fmt.Errorf("pde: BurgersSteady Eval dimension mismatch") //pdevet:allow noalloc error path
	}
	if p := b.pool; p.Procs() > 1 {
		s.evalRun.s = s
		s.evalRun.w = w
		s.evalRun.f = f
		p.Run(b.N, evalGrain(b.N), &s.evalRun)
		return nil
	}
	s.evalRows(w, f, 0, b.N)
	return nil
}

// JacobianCSR returns ∂A/∂w with the cached-pattern refresh.
//
//pdevet:noalloc
func (s *BurgersSteady) JacobianCSR(w []float64) (*la.CSR, error) {
	if len(w) != s.Dim() {
		return nil, fmt.Errorf("pde: BurgersSteady Jacobian dimension mismatch") //pdevet:allow noalloc error path
	}
	if s.cache.jac == nil {
		s.cache.buildUnits(s.Dim(), s.B.N, func(lo, hi int, e jacEmitter) { s.B.assembleJacobianRows(w, e, 0, 1, lo, hi) }) //pdevet:allow noalloc grow-on-first-use
		return s.cache.jac, nil
	}
	s.B.refreshJacobian(&s.cache, w, 0, 1)
	return s.cache.jac, nil
}

// InitialGuess returns the wrapped problem's previous-time fields.
func (s *BurgersSteady) InitialGuess() []float64 { return s.B.InitialGuess() }

// InitialGuessInto writes the wrapped problem's fields without allocating.
func (s *BurgersSteady) InitialGuessInto(w []float64) { s.B.InitialGuessInto(w) }

// MaxField propagates the wrapped problem's dynamic range.
func (s *BurgersSteady) MaxField() float64 { return s.B.MaxField() }

// Tiles delegates the red-black decomposition to the wrapped problem; the
// steady stencil has the same footprint.
func (s *BurgersSteady) Tiles(maxVars int) ([]problem.Tile, error) { return s.B.Tiles(maxVars) }

// SetRHSForRoot overwrites the forcing so wRoot is an exact steady solution:
// RHS := A(wRoot). After the first call on a given shape it does not
// allocate, so callers may re-root a cached problem per solve.
func (s *BurgersSteady) SetRHSForRoot(wRoot []float64) error {
	b := s.B
	if len(wRoot) != b.Dim() {
		return fmt.Errorf("pde: SetRHSForRoot dimension mismatch")
	}
	la.Fill(b.RHS0, 0)
	la.Fill(b.RHS1, 0)
	if len(s.rhsScratch) != b.Dim() {
		s.rhsScratch = make([]float64, b.Dim())
	}
	f := s.rhsScratch
	if err := s.Eval(wRoot, f); err != nil {
		return err
	}
	for i := 0; i < b.N; i++ {
		for j := 0; j < b.N; j++ {
			k := b.idx(i, j)
			node := i*b.N + j
			b.RHS0[node] = f[k]
			b.RHS1[node] = f[k+1]
		}
	}
	return nil
}

var (
	_ problem.SparseSystem = (*BurgersSteady)(nil)
	_ problem.Decomposable = (*BurgersSteady)(nil)
)
