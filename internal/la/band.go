// Numerical kernel file: the exact zero comparisons below are pivot,
// breakdown and structural-sparsity tests against values that are zero by
// assignment or would divide by zero — exactness is the point.
//pdevet:allow floateq pivot/breakdown/structural zero tests are exact by construction

package la

import (
	"fmt"
	"math"

	"hybridpde/internal/par"
)

// BandLU is an LU factorization with partial pivoting of a banded matrix,
// the workhorse direct solver for the stencil Jacobians produced by the PDE
// discretizations. With nodes interleaved (u,v per grid point) the 2-D
// Burgers Jacobian has bandwidth O(grid width), so the factorization costs
// O(n·b²) instead of O(n³) — this plays the role of the sparse direct
// (cuSolver QR) kernel of the paper's GPU baseline.
//
// Storage is row-contiguous: working row i holds matrix columns
// i−kl … i+ku+kl at data[i*w : (i+1)*w], w = 2·kl+ku+1; entry (i, j) sits
// at offset j−i+kl. The extra kl columns per row absorb fill from row
// interchanges, and every elimination update is unit-stride.
//
// Fill reaches only as far as the interchanges carry it (LAPACK dgbtf2's
// JU): after pivot steps 0…k no row holds a non-zero right of column
// max(piv[k′]+ku) over k′ ≤ k, because the load wrote +0 everywhere else.
// The swaps, updates and back substitution therefore stop at that reach,
// and every product they skip is m·(+0).
type BandLU struct {
	n, kl, ku int
	w         int // row width = 2·kl+ku+1
	data      []float64
	piv       []int
	maxPivOff int // max(piv[k]−k) of the last factorization: U's reach is ku+maxPivOff
	// FactorOps is the full-band multiply-add count the performance models
	// price: min(k+ku+kl, n−1)−k per non-zero multiplier at pivot k, fill
	// region included. It is not the count executed, since the elimination
	// stops at the reach, so a rate derived from it is nominal.
	FactorOps int64
	// pool, when set, fans the trailing-row updates of each pivot step
	// across its workers; upd/opsPartial are the persistent runner and the
	// per-chunk op counters (int64 partials sum exactly, so FactorOps is
	// identical at every worker count).
	pool       *par.Pool
	upd        bandUpdateRun
	opsPartial []int64
}

// bandParGrain is the minimum multiply-adds a parallel chunk of trailing-row
// updates must carry; below it one pivot step's fan-out costs more than it
// saves and the step runs serial.
const bandParGrain = 2048

// SetPool attaches a worker pool to the factorization: the trailing
// submatrix updates of each pivot step (rows k+1..k+kl, which are disjoint
// working rows) fan out across it. nil restores serial execution. Results —
// factors, pivots and FactorOps — are bit-identical at every pool size. The
// pool is used only during Factor* calls, which must not run concurrently.
func (f *BandLU) SetPool(p *par.Pool) {
	f.pool = p
	if n := p.Procs(); len(f.opsPartial) < n {
		f.opsPartial = make([]int64, n)
	}
}

// bandUpdateRun is the per-pivot-step elimination runner: index t of the
// partitioned range maps to working row i = k+1+t, and each such row's band
// storage (data[i*w … i*w+w)) is written by exactly one chunk while row k is
// only read — so any fan-out produces the serial loop's bits.
type bandUpdateRun struct {
	f     *BandLU
	k     int
	span  int // columns k…reach the update touches
	pivot float64
}

func (r *bandUpdateRun) Run(chunk, lo, hi int) {
	r.f.opsPartial[chunk] += r.eliminate(lo, hi)
}

// eliminate stores the multipliers of working rows k+1+lo … k+hi and
// subtracts their multiples of row k, returning the FactorOps they book:
// the full band's min(k+ku+kl, n−1)−k per row, not the span touched. The
// multipliers sit in column k, left of every updated range, so all of them
// are stored before one subScaledRows call updates the rows: working row
// i's column k is at i·(w−1)+k+kl, one row stride w−1 after row i−1's.
func (r *bandUpdateRun) eliminate(lo, hi int) int64 {
	if hi == lo {
		return 0
	}
	f := r.f
	w, kl, k := f.w, f.kl, r.k
	data := f.data
	full := int64(min(k+f.ku+kl, f.n-1) - k)
	first := (k+1+lo)*(w-1) + k + kl
	var ops int64
	for base := first; base < first+(hi-lo)*(w-1); base += w - 1 {
		m := data[base] / r.pivot
		data[base] = m
		if m != 0 {
			ops += full
		}
	}
	rowK := data[k*w+kl+1 : k*w+kl+r.span] // columns k+1…reach of row k
	subScaledRows(data[first+1:], rowK, data[first:], w-1, 0, w-1, r.span-1, 0, hi-lo, 1, 0)
	return ops
}

// subScaledRows is one pivot step's row updates in one call: it divides
// x[t] by d for t < nd, then for each row r < rows whose multiplier
// m_r = m[r·mstride] is not zero sets y[r·ystride+t] −= m_r·x[r·xstride+t]
// for t < n0−r·dn. The rows' y ranges may not overlap each other, x or the
// multipliers. On an amd64 CPU with AVX2 it runs four lanes at a time,
// with the same roundings in the same order as subScaledRowsGo, so every
// bit matches it.
func subScaledRows(y, x, m []float64, ystride, xstride, mstride, n0, dn, rows int, d float64, nd int) {
	checkRows(len(y), len(x), len(m), ystride, xstride, mstride, n0, dn, rows, nd)
	if useAVX2 {
		subScaledRowsAVX2(y, x, m, ystride, xstride, mstride, n0, dn, rows, d, nd)
		return
	}
	subScaledRowsGo(y, x, m, ystride, xstride, mstride, n0, dn, rows, d, nd)
}

// subScaled is subScaledRows for one row: y[t] −= m·x[t] for every
// t < len(y) unless m == 0; len(x) ≥ len(y), and y and x do not overlap.
// Slicing x to len(y) is the whole bounds check, so the call goes to the
// kernel directly.
func subScaled(y, x []float64, m float64) {
	x = x[:len(y)]
	if useAVX2 {
		ms := [1]float64{m}
		subScaledRowsAVX2(y, x, ms[:], 0, 0, 0, len(y), 0, 1, 1, 0)
		return
	}
	if m != 0 {
		subScaledGo(y, x, m)
	}
}

// checkRows panics unless every index subScaledRows may touch lies inside
// its slices, so the vector kernel never reads or writes past them. The
// row extents are linear in r, so the first and last rows bound them.
func checkRows(ny, nx, nm, ystride, xstride, mstride, n0, dn, rows, nd int) {
	if min(ystride, xstride, mstride, n0, dn, nd) < 0 || nd > nx {
		panic("la: subScaledRows: negative stride or length, or nd past x")
	}
	if rows <= 0 {
		return
	}
	last := rows - 1
	nLast := n0 - last*dn
	if nLast < 0 || max(n0, last*ystride+nLast) > ny || max(n0, last*xstride+nLast) > nx || last*mstride >= nm {
		panic("la: subScaledRows: a row runs past y, x or m")
	}
}

// subScaledRowsGo is subScaledRows in Go: the fallback off amd64 or
// without AVX2, and the reference the vector kernel is tested against.
func subScaledRowsGo(y, x, m []float64, ystride, xstride, mstride, n0, dn, rows int, d float64, nd int) {
	for t := range x[:nd] {
		x[t] /= d
	}
	for r := 0; r < rows; r++ {
		mr := m[r*mstride]
		if mr == 0 {
			continue
		}
		o, n := r*ystride, n0-r*dn
		subScaledGo(y[o:o+n], x[r*xstride:], mr)
	}
}

// subScaledGo sets y[t] −= m·x[t] for every t < len(y); len(x) ≥ len(y). The
// explicit conversion rounds each product before the subtraction, which
// forbids a fused multiply-add, so the bits do not depend on the CPU.
func subScaledGo(y, x []float64, m float64) {
	for len(y) >= 4 && len(x) >= 4 {
		y[0] -= float64(m * x[0])
		y[1] -= float64(m * x[1])
		y[2] -= float64(m * x[2])
		y[3] -= float64(m * x[3])
		y, x = y[4:], x[4:]
	}
	x = x[:len(y)]
	for t := range y {
		y[t] -= float64(m * x[t])
	}
}

// Bandwidths returns the lower and upper bandwidths of a sparse matrix.
func Bandwidths(a *CSR) (kl, ku int) {
	for i := 0; i < a.Rows(); i++ {
		cols, _ := a.RowNNZ(i)
		for _, j := range cols {
			if d := i - j; d > kl {
				kl = d
			}
			if d := j - i; d > ku {
				ku = d
			}
		}
	}
	return kl, ku
}

// NewBandLUWorkspace preallocates a factorization workspace for repeated
// factorizations of same-shaped matrices (the analog circuit simulation
// factors one Jacobian per derivative evaluation).
func NewBandLUWorkspace(n, kl, ku int) *BandLU {
	w := 2*kl + ku + 1
	return &BandLU{n: n, kl: kl, ku: ku, w: w, data: make([]float64, n*w), piv: make([]int, n)}
}

// FactorBandLU factors the banded matrix a (square CSR) with partial
// pivoting, allocating a fresh workspace.
func FactorBandLU(a *CSR) (*BandLU, error) {
	if a.Rows() != a.Cols() {
		return nil, fmt.Errorf("la: band LU of non-square %d×%d matrix", a.Rows(), a.Cols())
	}
	kl, ku := Bandwidths(a)
	f := NewBandLUWorkspace(a.Rows(), kl, ku)
	return f, f.FactorFrom(a)
}

// FactorFrom loads a into the workspace and factors it. a's dimensions and
// bandwidths must fit the workspace.
func (f *BandLU) FactorFrom(a *CSR) error {
	if err := f.load(a); err != nil {
		return err
	}
	return f.factor()
}

// load checks that a fits the workspace and copies it in. Every entry a
// leaves unwritten is +0, which the elimination's reach relies on.
func (f *BandLU) load(a *CSR) error {
	if a.Rows() != f.n || a.Cols() != f.n {
		return fmt.Errorf("la: band workspace is %d×%d, matrix is %d×%d", f.n, f.n, a.Rows(), a.Cols())
	}
	clear(f.data)
	f.FactorOps = 0
	for i := 0; i < f.n; i++ {
		cols, vals := a.RowNNZ(i)
		row := f.data[i*f.w : (i+1)*f.w]
		for k, j := range cols {
			off := j - i + f.kl
			if off < 0 || off > f.kl+f.ku {
				// The entry lies outside the declared band (only possible
				// when the workspace was sized for a narrower matrix).
				return fmt.Errorf("la: entry (%d,%d) outside band kl=%d ku=%d", i, j, f.kl, f.ku)
			}
			row[off] = vals[k]
		}
	}
	return nil
}

func (f *BandLU) factor() error {
	n, kl, ku, w := f.n, f.kl, f.ku, f.w
	data := f.data
	var ops int64
	procs := f.pool.Procs()
	f.upd.f = f
	f.maxPivOff = 0
	reach := 0 // rightmost column any row may hold a non-zero in (dgbtf2's JU)
	for k := 0; k < n; k++ {
		// Partial pivot among rows k..min(k+kl, n-1); element (i, k) is
		// at data[i*w + k-i+kl].
		iHi := min(k+kl, n-1)
		iMax := k
		vMax := math.Abs(data[k*w+kl])
		for i := k + 1; i <= iHi; i++ {
			if v := math.Abs(data[i*w+k-i+kl]); v > vMax {
				iMax, vMax = i, v
			}
		}
		if vMax == 0 {
			return ErrSingular
		}
		f.piv[k] = iMax
		f.maxPivOff = max(f.maxPivOff, iMax-k)
		// Past the reach, rows k and iMax both still hold the load's +0.
		reach = max(reach, min(iMax+ku, n-1))
		span := reach - k + 1
		rowK := data[k*w+kl : k*w+kl+span] // columns k…reach of row k
		if iMax != k {
			rowM := data[iMax*w+k-iMax+kl : iMax*w+k-iMax+kl+span]
			for t := range rowK {
				rowK[t], rowM[t] = rowM[t], rowK[t]
			}
		}
		rows := iHi - k
		f.upd.k, f.upd.span, f.upd.pivot = k, span, rowK[0]
		if procs > 1 && rows > 1 && rows*span >= bandParGrain {
			// Pivot search and swap above stay serial (they scan shared
			// state); the per-row eliminations are disjoint and fan out.
			f.pool.Run(rows, max(bandParGrain/span, 1), &f.upd)
			continue
		}
		ops += f.upd.eliminate(0, rows)
	}
	// Fold the parallel chunks' op counts: integer partials, so the sum is
	// exact and order-free.
	for i := range f.opsPartial {
		ops += f.opsPartial[i]
		f.opsPartial[i] = 0
	}
	f.FactorOps = ops
	return nil
}

// Reset reshapes the workspace for an n×n matrix with bandwidths (kl, ku),
// reusing the backing storage whenever its capacity suffices. The
// factorization contents become undefined until the next Factor* call.
func (f *BandLU) Reset(n, kl, ku int) {
	w := 2*kl + ku + 1
	f.n, f.kl, f.ku, f.w = n, kl, ku, w
	if cap(f.data) < n*w {
		f.data = make([]float64, n*w)
	}
	f.data = f.data[:n*w]
	if cap(f.piv) < n {
		f.piv = make([]int, n)
	}
	f.piv = f.piv[:n]
	f.FactorOps, f.maxPivOff = 0, 0
}

// FactorBandLUInto factors the banded matrix a into the caller-owned
// workspace f using the supplied bandwidths, reshaping f as needed without
// reallocating once warm. Callers that cache Bandwidths per Jacobian pattern
// (the sparse Newton workspace) skip the O(nnz) rescan FactorBandLU pays on
// every call, keeping the steady-state iteration alloc-free.
//
//pdevet:noalloc
func FactorBandLUInto(f *BandLU, a *CSR, kl, ku int) error {
	if a.Rows() != a.Cols() {
		// Failure path; allocates only on abort.
		return fmt.Errorf("la: band LU of non-square %d×%d matrix", a.Rows(), a.Cols()) //pdevet:allow noalloc error path
	}
	if f.n != a.Rows() || f.kl != kl || f.ku != ku {
		f.Reset(a.Rows(), kl, ku)
	}
	return f.FactorFrom(a)
}

// Solve solves A·x = b into dst, allocation-free. dst and b may alias fully;
// partial overlap is not supported.
func (f *BandLU) Solve(dst, b []float64) error {
	if len(b) != f.n || len(dst) != f.n {
		return fmt.Errorf("la: band solve length mismatch: n=%d len(b)=%d len(dst)=%d", f.n, len(b), len(dst))
	}
	n, kl, ku, w := f.n, f.kl, f.ku, f.w
	data := f.data
	x := dst
	if n > 0 && &dst[0] != &b[0] {
		copy(x, b)
	}
	// Forward substitution applying the recorded row swaps.
	for k := 0; k < n; k++ {
		if p := f.piv[k]; p != k {
			x[k], x[p] = x[p], x[k]
		}
		xk := x[k]
		if xk == 0 {
			continue
		}
		iHi := min(k+kl, n-1)
		for i := k + 1; i <= iHi; i++ {
			x[i] -= float64(data[i*w+k-i+kl] * xk)
		}
	}
	// Back substitution over row i of U, columns i…i+reach.
	reach := ku + f.maxPivOff
	for i := n - 1; i >= 0; i-- {
		row := data[i*w : (i+1)*w]
		jHi := min(i+reach, n-1)
		u, xs := row[kl+1:kl+1+jHi-i], x[i+1:jHi+1]
		s := x[i]
		for j, v := range u {
			s -= float64(v * xs[j])
		}
		d := row[kl]
		if d == 0 {
			return ErrSingular
		}
		x[i] = s / d
	}
	return nil
}

// SolveInto solves A·x = b in place: x holds b on entry and the solution on
// return.
func (f *BandLU) SolveInto(x []float64) error {
	if len(x) != f.n {
		return fmt.Errorf("la: band SolveInto length mismatch: n=%d len(x)=%d", f.n, len(x))
	}
	return f.Solve(x, x)
}

// SolveSparse factors and solves a sparse system in one call, choosing the
// banded direct solver. It returns the solution and the factorization (for
// op accounting).
func SolveSparse(a *CSR, b []float64) ([]float64, *BandLU, error) {
	f, err := FactorBandLU(a)
	if err != nil {
		return nil, nil, err
	}
	x := make([]float64, len(b))
	if err := f.Solve(x, b); err != nil {
		return nil, f, err
	}
	return x, f, nil
}

// MulTransVec computes dst = Aᵀ·x.
func (m *CSR) MulTransVec(dst, x []float64) {
	if len(x) != m.rows || len(dst) != m.cols {
		panic(fmt.Sprintf("la: MulTransVec mismatch: %d×%d with %d into %d", m.rows, m.cols, len(x), len(dst)))
	}
	for i := range dst {
		dst[i] = 0
	}
	for k := 0; k < m.rows; k++ {
		xk := x[k]
		if xk == 0 {
			continue
		}
		lo, hi := m.rowPtr[k], m.rowPtr[k+1]
		for t := lo; t < hi; t++ {
			dst[m.colIdx[t]] += float64(m.vals[t] * xk)
		}
	}
}
