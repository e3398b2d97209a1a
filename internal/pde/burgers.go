// Package pde converts partial differential equations into the nonlinear
// systems of algebraic equations the rest of the stack solves (§4 of the
// paper): structured-grid space discretisation with second-order central
// finite differences, Crank–Nicolson implicit time stepping, and the
// resulting stencil systems with analytic sparse Jacobians. The flagship
// problem is the paper's benchmark, the 2-D viscous Burgers' equation; the
// package also provides the semilinear reaction systems of §3 and the
// Table-1 workload mini-apps.
package pde

import (
	"fmt"
	"math"
	"math/rand"

	"hybridpde/internal/la"
	"hybridpde/internal/par"
	"hybridpde/internal/problem"
)

// Burgers describes one Crank–Nicolson step of the 2-D viscous Burgers'
// equation (Equation 4/5 of the paper) on an N×N interior grid with
// Dirichlet boundaries:
//
//	∂u/∂t + u·∂u/∂x + v·∂u/∂y − (1/Re)·∇²u = RHS₀
//	∂v/∂t + u·∂v/∂x + v·∂v/∂y − (1/Re)·∇²v = RHS₁
//
// Following §4.4, Δt, Δx and Δy are chosen isotropically so the stencil
// coefficients are eliminated (all equal to one); the Reynolds number is
// then the single free parameter, controlling the balance between the
// advective (hyperbolic) and diffusive (parabolic) character (Table 2).
//
// Unknowns are the new-time fields interleaved per node,
// w = [u₀₀, v₀₀, u₀₁, v₀₁, …], which keeps the Jacobian bandwidth at
// O(N) for the banded direct solver.
type Burgers struct {
	N  int     // interior grid is N×N
	Re float64 // Reynolds number
	// Order selects the finite-difference order: 2 (default) or 4. The
	// paper's §7 extension: "higher-order finite difference schemes are
	// more accurate and efficient, at the cost of having larger stencils,
	// thereby requiring a larger accelerator." Order 4 uses the 5-point
	// central stencils per direction on nodes at least two cells from the
	// boundary and falls back to order 2 beside it.
	Order int

	// Previous time-level fields, length N·N, row-major (i*N+j).
	UPrev, VPrev []float64
	// Dirichlet boundary values on the ghost ring. BoundaryU/V are
	// evaluated at ghost coordinates (i or j equal to −1 or N).
	BoundaryU, BoundaryV func(i, j int) float64
	// Forcing terms, length N·N.
	RHS0, RHS1 []float64

	// Cached Jacobian pattern and the value-slot order of the assembly
	// loop; the pattern is fixed across Newton iterations, so refreshes
	// write values in place instead of rebuilding and re-sorting.
	cache jacCache
	// pool, when set via SetPool, fans the residual and Jacobian walks
	// across grid-row chunks; evalRun/jacRun are the persistent runners.
	pool    *par.Pool
	evalRun burgersEvalRun
	jacRun  burgersJacRun
}

// SetPool attaches a worker pool to the residual and Jacobian walks (the
// nonlin.PoolAware hook). Grid rows partition both walks: every row of f and
// every Jacobian matrix row is written by exactly one chunk in the serial
// walk's order, so results are bit-identical at any pool size. nil restores
// serial execution.
func (b *Burgers) SetPool(p *par.Pool) { b.pool = p }

// evalGrain returns the minimum grid rows per parallel chunk so one chunk
// carries ~256 nodes of stencil work.
func evalGrain(n int) int {
	g := 256 / n
	if g < 1 {
		g = 1
	}
	return g
}

// jacGrain is evalGrain's Jacobian counterpart; assembly emits ~14 entries
// per node, so chunks amortise sooner.
func jacGrain(n int) int {
	g := 128 / n
	if g < 1 {
		g = 1
	}
	return g
}

// burgersEvalRun fans Eval's node loop across grid-row chunks.
type burgersEvalRun struct {
	b    *Burgers
	w, f []float64
}

func (r *burgersEvalRun) Run(_, lo, hi int) { r.b.evalRows(r.w, r.f, lo, hi) }

// burgersJacRun fans a Jacobian refresh across grid-row chunks: each chunk
// zeroes and re-accumulates its own matrix-row block through its shard
// emitter. Shared by Burgers and BurgersSteady (which passes its own cache
// and weights).
type burgersJacRun struct {
	b        *Burgers
	c        *jacCache
	w        []float64
	idW, opW float64
}

func (r *burgersJacRun) Run(chunk, lo, hi int) {
	n := r.b.N
	// Grid row u owns matrix rows [2uN, 2(u+1)N).
	r.c.jac.ZeroRowsValues(2*lo*n, 2*hi*n)
	r.b.assembleJacobianRows(r.w, r.c.shard(chunk, lo), r.idW, r.opW, lo, hi)
}

// refreshJacobian runs one in-place Jacobian refresh of cache — parallel
// across grid rows when a pool is attached, the classic serial
// zero-then-accumulate walk otherwise.
//
//pdevet:noalloc
func (b *Burgers) refreshJacobian(cache *jacCache, w []float64, idW, opW float64) {
	if p := b.pool; p.Procs() > 1 {
		cache.ensureShards(p.Procs())
		b.jacRun.b = b
		b.jacRun.c = cache
		b.jacRun.w = w
		b.jacRun.idW = idW
		b.jacRun.opW = opW
		p.Run(b.N, jacGrain(b.N), &b.jacRun)
		return
	}
	cache.beginRefresh()
	b.assembleJacobianRows(w, cache, idW, opW, 0, b.N)
}

// NewBurgers allocates a problem with zero fields, zero boundaries and zero
// forcing. Callers fill the fields or use RandomBurgers.
func NewBurgers(n int, re float64) (*Burgers, error) {
	if n < 1 {
		return nil, fmt.Errorf("pde: grid size %d must be ≥ 1", n)
	}
	if re <= 0 {
		return nil, fmt.Errorf("pde: Reynolds number %g must be positive", re)
	}
	zero := func(i, j int) float64 { return 0 }
	return &Burgers{
		N: n, Re: re,
		UPrev: make([]float64, n*n), VPrev: make([]float64, n*n),
		RHS0: make([]float64, n*n), RHS1: make([]float64, n*n),
		BoundaryU: zero, BoundaryV: zero,
	}, nil
}

// RandomBurgers builds a problem with previous fields, boundary values and
// forcing drawn uniformly from ±bound, the paper's random-problem protocol
// (§5.4: "constants... randomly chosen between a dynamic range of -3.0 and
// 3.0"). The generator is deterministic in rng.
func RandomBurgers(n int, re float64, bound float64, rng *rand.Rand) (*Burgers, error) {
	b, err := NewBurgers(n, re)
	if err != nil {
		return nil, err
	}
	u := func() float64 { return bound * (2*rng.Float64() - 1) }
	for i := range b.UPrev {
		b.UPrev[i] = u()
		b.VPrev[i] = u()
		b.RHS0[i] = u()
		b.RHS1[i] = u()
	}
	// Random but fixed boundary ring.
	bu := make(map[[2]int]float64)
	bv := make(map[[2]int]float64)
	for i := -1; i <= n; i++ {
		for _, j := range []int{-1, n} {
			bu[[2]int{i, j}] = u()
			bv[[2]int{i, j}] = u()
			bu[[2]int{j, i}] = u()
			bv[[2]int{j, i}] = u()
		}
	}
	b.BoundaryU = func(i, j int) float64 { return bu[[2]int{i, j}] }
	b.BoundaryV = func(i, j int) float64 { return bv[[2]int{i, j}] }
	return b, nil
}

// Dim returns the number of unknowns: two fields on N×N nodes.
func (b *Burgers) Dim() int { return 2 * b.N * b.N }

// PolynomialDegree reports the quadratic nonlinearity of the stencil, used
// by the analog dynamic-range scaler.
func (b *Burgers) PolynomialDegree() int { return 2 }

// idx maps node (i, j) to the unknown index of its u component; +1 is v.
func (b *Burgers) idx(i, j int) int { return 2 * (i*b.N + j) }

// fieldAt reads component c (0 = u, 1 = v) at node (i, j) from the unknown
// vector w, falling back to boundary values off-grid.
func (b *Burgers) fieldAt(w []float64, c, i, j int) float64 {
	if i < 0 || i >= b.N || j < 0 || j >= b.N {
		if c == 0 {
			return b.BoundaryU(i, j)
		}
		return b.BoundaryV(i, j)
	}
	return w[b.idx(i, j)+c]
}

// stateAt reads component c at node (i, j) from w, or from the
// previous-time fields when w is nil, with the boundary fallback. The nil
// convention (instead of an accessor closure) keeps the residual and
// Jacobian hot paths free of per-call closure allocations.
func (b *Burgers) stateAt(w []float64, c, i, j int) float64 {
	if i < 0 || i >= b.N || j < 0 || j >= b.N {
		if c == 0 {
			return b.BoundaryU(i, j)
		}
		return b.BoundaryV(i, j)
	}
	if w == nil {
		if c == 0 {
			return b.UPrev[i*b.N+j]
		}
		return b.VPrev[i*b.N+j]
	}
	return w[b.idx(i, j)+c]
}

// inGrid reports whether node (i, j) is an interior unknown.
func (b *Burgers) inGrid(i, j int) bool { return i >= 0 && i < b.N && j >= 0 && j < b.N }

// Central-difference weight tables: first and second derivatives at unit
// spacing, offsets −2..+2 (the ±2 weights are zero at order 2).
var (
	d1Order2 = [5]float64{0, -0.5, 0, 0.5, 0}
	d2Order2 = [5]float64{0, 1, -2, 1, 0}
	d1Order4 = [5]float64{1.0 / 12, -8.0 / 12, 0, 8.0 / 12, -1.0 / 12}
	d2Order4 = [5]float64{-1.0 / 12, 16.0 / 12, -30.0 / 12, 16.0 / 12, -1.0 / 12}
)

// stencilAt picks the derivative weights for node (i, j): order 4 where the
// full 5-point stencil fits in both directions, order 2 otherwise.
func (b *Burgers) stencilAt(i, j int) (d1, d2 *[5]float64) {
	if b.Order == 4 && i >= 2 && i < b.N-2 && j >= 2 && j < b.N-2 {
		return &d1Order4, &d2Order4
	}
	return &d1Order2, &d2Order2
}

// advDiff evaluates the unit-coefficient spatial operator
// A(c) = u·∂ₓc + v·∂ᵧc − (1/Re)·∇²c at node (i, j) on state w (nil for the
// previous time level, see stateAt).
func (b *Burgers) advDiff(w []float64, c, i, j int) float64 {
	u := b.stateAt(w, 0, i, j)
	v := b.stateAt(w, 1, i, j)
	d1, d2 := b.stencilAt(i, j)
	var dx, dy, lap float64
	for k := -2; k <= 2; k++ {
		w1, w2 := d1[k+2], d2[k+2]
		if w1 == 0 && w2 == 0 { //pdevet:allow floateq derivative-weight tables hold assigned structural zeros
			continue
		}
		cx := b.stateAt(w, c, i+k, j)
		cy := b.stateAt(w, c, i, j+k)
		dx += w1 * cx
		dy += w1 * cy
		lap += w2 * (cx + cy)
	}
	return u*dx + v*dy - lap/b.Re
}

// Eval computes the Crank–Nicolson residual
// F(w) = w − w_prev + ½[A(w) + A(w_prev)] − RHS.
//
//pdevet:noalloc
func (b *Burgers) Eval(w, f []float64) error {
	if len(w) != b.Dim() || len(f) != b.Dim() {
		return fmt.Errorf("pde: Burgers Eval dimension mismatch") //pdevet:allow noalloc error path
	}
	if p := b.pool; p.Procs() > 1 {
		b.evalRun.b = b
		b.evalRun.w = w
		b.evalRun.f = f
		p.Run(b.N, evalGrain(b.N), &b.evalRun)
		return nil
	}
	b.evalRows(w, f, 0, b.N)
	return nil
}

// evalRows computes the residual of grid rows [iLo, iHi): the serial inner
// loop of Eval and the chunk body of its parallel fan-out (each f row is
// written by exactly one chunk).
//
//pdevet:noalloc
func (b *Burgers) evalRows(w, f []float64, iLo, iHi int) {
	for i := iLo; i < iHi; i++ {
		for j := 0; j < b.N; j++ {
			k := b.idx(i, j)
			node := i*b.N + j
			for c := 0; c < 2; c++ {
				newA := b.advDiff(w, c, i, j)
				oldA := b.advDiff(nil, c, i, j)
				rhs := b.RHS0[node]
				prev := b.UPrev[node]
				if c == 1 {
					rhs = b.RHS1[node]
					prev = b.VPrev[node]
				}
				f[k+c] = w[k+c] - prev + 0.5*(newA+oldA) - rhs
			}
		}
	}
}

// JacobianCSR returns the analytic Jacobian of the stencil. The sparsity
// pattern (5-point stencil on each field plus the u–v coupling on the
// node) is built once; subsequent calls refresh the values in place, which
// keeps the analog circuit simulation (thousands of Jacobian evaluations
// per solve) allocation-free on the hot path.
//
//pdevet:noalloc
func (b *Burgers) JacobianCSR(w []float64) (*la.CSR, error) {
	if len(w) != b.Dim() {
		return nil, fmt.Errorf("pde: Burgers Jacobian dimension mismatch") //pdevet:allow noalloc error path
	}
	if b.cache.jac == nil {
		// One-time pattern build, unitised by grid row so refreshes can fan
		// out; every later call refreshes in place.
		b.cache.buildUnits(b.Dim(), b.N, func(lo, hi int, e jacEmitter) { b.assembleJacobianRows(w, e, 1, 0.5, lo, hi) }) //pdevet:allow noalloc grow-on-first-use
		return b.cache.jac, nil
	}
	// Refresh: zero, then accumulate — assembly may emit the same entry
	// several times (time term, diffusion and advection all touch the
	// node-centre slot).
	b.refreshJacobian(&b.cache, w, 1, 0.5)
	return b.cache.jac, nil
}

// assembleJacobian walks the stencil in deterministic order, emitting every
// Jacobian contribution of idW·I + opW·∂A/∂w. Crank–Nicolson stepping uses
// (idW, opW) = (1, ½); the steady method-of-lines form uses (0, 1). Entries
// for the same (row, column) may be emitted more than once; consumers must
// sum them (COO assembly and the zero-then-accumulate refresh both do).
//
// For the c-component equation at node (i, j),
// F = idW·c_node + opW·[u·D₁ₓc + v·D₁ᵧc − (D₂ₓc + D₂ᵧc)/Re] + … − RHS:
//
//	∂F/∂c_{i+k,j} = opW·(u·w₁[k] − w₂[k]/Re)   (x-direction neighbours)
//	∂F/∂c_{i,j+k} = opW·(v·w₁[k] − w₂[k]/Re)   (y-direction neighbours)
//	∂F/∂u_{i,j}  += opW·D₁ₓc                    (advecting-velocity terms)
//	∂F/∂v_{i,j}  += opW·D₁ᵧc
//
// plus the time-derivative identity (weight idW) on the node centre.
//
//pdevet:noalloc
func (b *Burgers) assembleJacobian(w []float64, e jacEmitter, idW, opW float64) {
	b.assembleJacobianRows(w, e, idW, opW, 0, b.N)
}

// assembleJacobianRows walks grid rows [iLo, iHi) only. Every emission of
// row i targets matrix rows idx(i, j)+c of that same grid row — the property
// the parallel refresh's disjoint row-block partition rests on.
//
//pdevet:noalloc
func (b *Burgers) assembleJacobianRows(w []float64, e jacEmitter, idW, opW float64, iLo, iHi int) {
	n := b.N
	for i := iLo; i < iHi; i++ {
		for j := 0; j < n; j++ {
			base := b.idx(i, j)
			u := b.stateAt(w, 0, i, j)
			v := b.stateAt(w, 1, i, j)
			d1, d2 := b.stencilAt(i, j)
			for c := 0; c < 2; c++ {
				row := base + c
				// Time-derivative identity.
				e.emit(row, row, idW)
				// Neighbour couplings of the advected component c, and
				// the advective self-derivatives D₁ₓc, D₁ᵧc.
				var dx, dy float64
				for k := -2; k <= 2; k++ {
					w1, w2 := d1[k+2], d2[k+2]
					if w1 == 0 && w2 == 0 { //pdevet:allow floateq derivative-weight tables hold assigned structural zeros
						continue
					}
					dx += w1 * b.stateAt(w, c, i+k, j)
					dy += w1 * b.stateAt(w, c, i, j+k)
					if k == 0 {
						// Both directions' centre weights land on the
						// node itself.
						e.emit(row, row, opW*(-2*w2/b.Re))
						continue
					}
					if b.inGrid(i+k, j) {
						e.emit(row, b.idx(i+k, j)+c, opW*(u*w1-w2/b.Re))
					}
					if b.inGrid(i, j+k) {
						e.emit(row, b.idx(i, j+k)+c, opW*(v*w1-w2/b.Re))
					}
				}
				// Advecting-velocity derivatives: ∂F/∂u_ij and ∂F/∂v_ij.
				e.emit(row, base, opW*dx)
				e.emit(row, base+1, opW*dy)
			}
		}
	}
}

// InitialGuess returns the standard starting point for the step's Newton
// solve: the previous time level (the natural warm start).
func (b *Burgers) InitialGuess() []float64 {
	w := make([]float64, b.Dim())
	b.InitialGuessInto(w)
	return w
}

// InitialGuessInto writes the previous time level into w without allocating.
func (b *Burgers) InitialGuessInto(w []float64) {
	for i := 0; i < b.N; i++ {
		for j := 0; j < b.N; j++ {
			k := b.idx(i, j)
			node := i*b.N + j
			w[k] = b.UPrev[node]
			w[k+1] = b.VPrev[node]
		}
	}
}

// Advance installs a solved step as the new previous-time fields, enabling
// time-marching simulations.
func (b *Burgers) Advance(w []float64) error {
	if len(w) != b.Dim() {
		return fmt.Errorf("pde: Advance dimension mismatch")
	}
	for i := 0; i < b.N; i++ {
		for j := 0; j < b.N; j++ {
			k := b.idx(i, j)
			node := i*b.N + j
			b.UPrev[node] = w[k]
			b.VPrev[node] = w[k+1]
		}
	}
	return nil
}

// MaxField returns the largest |value| across the previous fields, RHS and
// boundary ring — the dynamic range the analog scaler needs.
func (b *Burgers) MaxField() float64 {
	m := 0.0
	chk := func(v float64) {
		if a := math.Abs(v); a > m {
			m = a
		}
	}
	for i := range b.UPrev {
		chk(b.UPrev[i])
		chk(b.VPrev[i])
		chk(b.RHS0[i])
		chk(b.RHS1[i])
	}
	for i := -1; i <= b.N; i++ {
		for _, j := range []int{-1, b.N} {
			chk(b.BoundaryU(i, j))
			chk(b.BoundaryV(i, j))
			chk(b.BoundaryU(j, i))
			chk(b.BoundaryV(j, i))
		}
	}
	return m
}

// SetRHSForRoot overwrites the forcing terms so that wRoot is an exact
// solution of the step system: RHS := wRoot − w_prev + ½[A(wRoot)+A(w_prev)].
// The evaluation protocol plants a root this way before timing the solvers,
// the deterministic analogue of the paper's golden-model certification step
// (§6.1) — problems without a certified solution are never benchmarked.
func (b *Burgers) SetRHSForRoot(wRoot []float64) error {
	if len(wRoot) != b.Dim() {
		return fmt.Errorf("pde: SetRHSForRoot dimension mismatch")
	}
	la.Fill(b.RHS0, 0)
	la.Fill(b.RHS1, 0)
	f := make([]float64, b.Dim())
	if err := b.Eval(wRoot, f); err != nil {
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

// Tiles implements problem.Decomposable for the §6.3 red-black subdomain
// decomposition: tileN×tileN node subdomains (two unknowns per node) on a
// checkerboard, with tileN the largest divisor of N whose tile fits in
// maxVars accelerator variables. It errors when no tile of at least 2×2
// nodes fits — pointwise 1×1 "tiles" would silently degrade the subdomain
// method to pointwise relaxation.
func (b *Burgers) Tiles(maxVars int) ([]problem.Tile, error) {
	tileMax := int(math.Sqrt(float64(maxVars / 2)))
	tileN, err := problem.LargestDividingTile(b.N, tileMax)
	if err != nil {
		return nil, fmt.Errorf("pde: cannot tile %d×%d grid for %d-variable accelerator: %w", b.N, b.N, maxVars, err)
	}
	return problem.Checkerboard(b.N, tileN, 2)
}

var (
	_ problem.SparseSystem = (*Burgers)(nil)
	_ problem.Decomposable = (*Burgers)(nil)
)
