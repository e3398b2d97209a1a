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
	u := func() float64 { return bound * (2*float64(rng.Float64()) - 1) }
	for i := range b.UPrev {
		b.UPrev[i] = u()
		b.VPrev[i] = u()
		b.RHS0[i] = u()
		b.RHS1[i] = u()
	}
	// Random but fixed boundary ring, corners included. The loop visits
	// each corner twice; the last draw stays, as MaxField reads it.
	bu := make([]float64, 4*n+4)
	bv := make([]float64, 4*n+4)
	for i := -1; i <= n; i++ {
		for _, j := range []int{-1, n} {
			bu[ghostSlot(n, i, j)] = u()
			bv[ghostSlot(n, i, j)] = u()
			bu[ghostSlot(n, j, i)] = u()
			bv[ghostSlot(n, j, i)] = u()
		}
	}
	b.BoundaryU = func(i, j int) float64 { return ghostAt(bu, n, i, j) }
	b.BoundaryV = func(i, j int) float64 { return ghostAt(bv, n, i, j) }
	return b, nil
}

// ghostSlot maps a ghost-ring coordinate of an n×n grid (i or j equal to −1
// or n, corners included) to its slot in a ring of 4n+4 values, or −1 when
// (i, j) is not on the ring.
func ghostSlot(n, i, j int) int {
	switch {
	case i < -1 || i > n || j < -1 || j > n:
		return -1
	case j == -1:
		return i + 1
	case j == n:
		return n + 3 + i
	case i == -1:
		return 2*n + 4 + j
	case i == n:
		return 3*n + 4 + j
	}
	return -1
}

// ghostAt reads ring at ghost coordinate (i, j); off the ring it is zero.
func ghostAt(ring []float64, n, i, j int) float64 {
	if s := ghostSlot(n, i, j); s >= 0 {
		return ring[s]
	}
	return 0
}

// Dim returns the number of unknowns: two fields on N×N nodes.
func (b *Burgers) Dim() int { return 2 * b.N * b.N }

// PolynomialDegree reports the quadratic nonlinearity of the stencil, used
// by the analog dynamic-range scaler.
func (b *Burgers) PolynomialDegree() int { return 2 }

// idx maps node (i, j) to the unknown index of its u component; +1 is v.
func (b *Burgers) idx(i, j int) int { return 2 * (i*b.N + j) }

// stateAt reads component c (0 = u, 1 = v) at node (i, j) from w, or from
// the previous-time fields when w is nil, with the boundary fallback. The nil
// convention (instead of an accessor closure) keeps the residual and
// Jacobian hot paths free of per-call closure allocations.
func (b *Burgers) stateAt(w []float64, c, i, j int) float64 {
	u, v := b.pairAt(w, i, j)
	if c == 0 {
		return u
	}
	return v
}

// pairAt is stateAt for both components at once.
func (b *Burgers) pairAt(w []float64, i, j int) (u, v float64) {
	n := b.N
	if i < 0 || i >= n || j < 0 || j >= n {
		return b.BoundaryU(i, j), b.BoundaryV(i, j)
	}
	if w == nil {
		return b.UPrev[i*n+j], b.VPrev[i*n+j]
	}
	o := 2 * (i*n + j)
	return w[o], w[o+1]
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

// order4At reports whether node (i, j) uses the order-4 stencil: Order is 4
// and the full 5-point stencil fits in both directions.
func (b *Burgers) order4At(i, j int) bool {
	return b.Order == 4 && i >= 2 && i < b.N-2 && j >= 2 && j < b.N-2
}

// stencilAt picks the derivative weights for node (i, j): order 4 where
// order4At holds, order 2 otherwise.
func (b *Burgers) stencilAt(i, j int) (d1, d2 *[5]float64) {
	if b.order4At(i, j) {
		return &d1Order4, &d2Order4
	}
	return &d1Order2, &d2Order2
}

// op2 evaluates both components of the unit-coefficient spatial operator
// A(c) = u·∂ₓc + v·∂ᵧc − (1/Re)·∇²c at the node at index o of the fields xu
// and xv, with strides si along i and sj along j. The order-2 weights
// d1Order2 and d2Order2 are unrolled over k = −1, 0, +1; the products and
// sums, the 0·c centre terms included, are those of the weight-table loop
// in that order, so A is bit-identical to it. (Only the products by the
// unit d2 weights are left out: they are exact.)
func op2(xu, xv []float64, o, si, sj int, re float64) (au, av float64) {
	u, uim, uip, ujm, ujp := xu[o], xu[o-si], xu[o+si], xu[o-sj], xu[o+sj]
	v, vim, vip, vjm, vjp := xv[o], xv[o-si], xv[o+si], xv[o-sj], xv[o+sj]
	var dxu, dyu, lapu, dxv, dyv, lapv float64
	dxu += float64(-0.5 * uim)
	dyu += float64(-0.5 * ujm)
	lapu += uim + ujm
	dxv += float64(-0.5 * vim)
	dyv += float64(-0.5 * vjm)
	lapv += vim + vjm
	dxu += float64(0 * u)
	dyu += float64(0 * u)
	lapu += float64(-2 * (u + u))
	dxv += float64(0 * v)
	dyv += float64(0 * v)
	lapv += float64(-2 * (v + v))
	dxu += float64(0.5 * uip)
	dyu += float64(0.5 * ujp)
	lapu += uip + ujp
	dxv += float64(0.5 * vip)
	dyv += float64(0.5 * vjp)
	lapv += vip + vjp
	au = float64(u*dxu) + float64(v*dyu) - lapu/re
	av = float64(u*dxv) + float64(v*dyv) - lapv/re
	return au, av
}

// op4 is op2's order-4 counterpart for one advected component x at
// advecting velocity (u, v): the weight-table loop over k = −2…+2.
func op4(u, v float64, x []float64, o, si, sj int, re float64) float64 {
	var dx, dy, lap float64
	for k := -2; k <= 2; k++ {
		w1, w2 := d1Order4[k+2], d2Order4[k+2]
		cx := x[o+k*si]
		cy := x[o+k*sj]
		dx += float64(w1 * cx)
		dy += float64(w1 * cy)
		lap += float64(w2 * (cx + cy))
	}
	return float64(u*dx) + float64(v*dy) - lap/re
}

// nodeOp returns both components of A at node (i, j) on state w, or on the
// previous time level when w is nil (the stateAt convention). Interior
// nodes run the kernel on w (strides 2N and 2) or on UPrev/VPrev (strides
// N and 1) directly. The 4N−4 edge nodes, always order 2, first gather
// their plus stencils of both fields through pairAt into a 3×3 stack array
// (strides 3 and 1). Nothing is written outside the stack, so concurrent
// calls are safe.
//
//pdevet:noalloc
func (b *Burgers) nodeOp(w []float64, i, j int) (au, av float64) {
	n := b.N
	if i == 0 || j == 0 || i == n-1 || j == n-1 {
		var g [2][9]float64 // u then v; the 3×3 corners stay unused
		g[0][4], g[1][4] = b.pairAt(w, i, j)
		g[0][1], g[1][1] = b.pairAt(w, i-1, j)
		g[0][7], g[1][7] = b.pairAt(w, i+1, j)
		g[0][3], g[1][3] = b.pairAt(w, i, j-1)
		g[0][5], g[1][5] = b.pairAt(w, i, j+1)
		return op2(g[0][:], g[1][:], 4, 3, 1, b.Re)
	}
	xu, xv, o, si, sj := b.UPrev, b.VPrev, i*n+j, n, 1
	if w != nil {
		xu, xv, o, si, sj = w, w[1:], 2*(i*n+j), 2*n, 2
	}
	if b.order4At(i, j) {
		return op4(xu[o], xv[o], xu, o, si, sj, b.Re), op4(xu[o], xv[o], xv, o, si, sj, b.Re)
	}
	return op2(xu, xv, o, si, sj, b.Re)
}

// Eval computes the Crank–Nicolson residual
// F(w) = w − w_prev + ½[A(w) + A(w_prev)] − RHS.
//
// Without a pool, Eval reads the problem and writes only f, so calls with
// distinct w and f may run concurrently; problem.Sub's concurrent tile
// solves rely on it. With a pool attached (SetPool), calls must not
// overlap: the fan-out runner is per problem.
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
	n := b.N
	for i := iLo; i < iHi; i++ {
		for j := 0; j < n; j++ {
			node := i*n + j
			k := 2 * node
			au, av := b.nodeOp(w, i, j)
			pu, pv := b.nodeOp(nil, i, j)
			f[k] = w[k] - b.UPrev[node] + float64(0.5*(au+pu)) - b.RHS0[node]
			f[k+1] = w[k+1] - b.VPrev[node] + float64(0.5*(av+pv)) - b.RHS1[node]
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

// assembleJacobianRows walks the stencil of grid rows [iLo, iHi) in
// deterministic order, emitting every Jacobian contribution of
// idW·I + opW·∂A/∂w. Crank–Nicolson stepping uses (idW, opW) = (1, ½); the
// steady method-of-lines form uses (0, 1). Entries for the same (row,
// column) may be emitted more than once; consumers must sum them (COO
// assembly and the zero-then-accumulate refresh both do).
//
// For the c-component equation at node (i, j),
// F = idW·c_node + opW·[u·D₁ₓc + v·D₁ᵧc − (D₂ₓc + D₂ᵧc)/Re] + … − RHS:
//
//	∂F/∂c_{i+k,j} = opW·(u·w₁[k] − w₂[k]/Re)   (x-direction neighbours)
//	∂F/∂c_{i,j+k} = opW·(v·w₁[k] − w₂[k]/Re)   (y-direction neighbours)
//	∂F/∂u_{i,j}  += opW·D₁ₓc                    (advecting-velocity terms)
//	∂F/∂v_{i,j}  += opW·D₁ᵧc
//
// plus the time-derivative identity (weight idW) on the node centre. Every
// emission of row i targets matrix rows idx(i, j)+c of that same grid row —
// the property the parallel refresh's disjoint row-block partition rests on.
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
					dx += float64(w1 * b.stateAt(w, c, i+k, j))
					dy += float64(w1 * b.stateAt(w, c, i, j+k))
					if k == 0 {
						// Both directions' centre weights land on the
						// node itself.
						e.emit(row, row, opW*(-2*w2/b.Re))
						continue
					}
					if b.inGrid(i+k, j) {
						e.emit(row, b.idx(i+k, j)+c, opW*(float64(u*w1)-w2/b.Re))
					}
					if b.inGrid(i, j+k) {
						e.emit(row, b.idx(i, j+k)+c, opW*(float64(v*w1)-w2/b.Re))
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
