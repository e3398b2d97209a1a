// Numerical kernel file: the exact zero comparisons below are pivot,
// breakdown and structural-sparsity tests against values that are zero by
// assignment or would divide by zero — exactness is the point.
//pdevet:allow floateq pivot/breakdown/structural zero tests are exact by construction

package la

import (
	"fmt"
	"math"
)

// BandLU is an LU factorization with partial pivoting of a banded matrix,
// the workhorse direct solver for the stencil Jacobians produced by the PDE
// discretizations. With nodes interleaved (u,v per grid point) the 2-D
// Burgers Jacobian has bandwidth O(grid width), so the factorization costs
// O(n·b²) instead of O(n³) — this plays the role of the sparse direct
// (cuSolver QR) kernel of the paper's GPU baseline.
//
// Storage is LAPACK dgbtrf's column-major band: column j holds matrix rows
// j−kl−ku … j+kl at data[j*ld : (j+1)*ld], ld = 2·kl+ku+1, so entry (i, j)
// sits at j·ld + kl+ku+i−j. The top kl rows of each column absorb the fill
// that row interchanges carry into U; L's multipliers of pivot k sit below
// the diagonal of column k, contiguous, and are never swapped afterwards.
//
// Fill reaches only as far as the interchanges carry it (LAPACK dgbtf2's
// JU): after pivot steps 0…k no row holds a non-zero right of column
// max(piv[k′]+ku) over k′ ≤ k, because the load wrote +0 everywhere else.
// The swaps, updates and back substitution therefore stop at that reach,
// and every product they skip is m·(+0).
type BandLU struct {
	n, kl, ku int
	ld        int // column length = 2·kl+ku+1
	data      []float64
	piv       []int
	maxPivOff int // max(piv[k]−k) of the last factorization: U's reach is ku+maxPivOff
	// fillClean records that the top kl rows of every column hold +0: the
	// last factorization cleared or kept them so and wrote none, so the
	// next need not clear them again.
	fillClean bool
	// FactorOps is the full-band multiply-add count the performance models
	// price: min(k+ku+kl, n−1)−k per non-zero multiplier at pivot k, fill
	// region included. It is not the count executed, since the elimination
	// stops at the reach, so a rate derived from it is nominal.
	FactorOps int64
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

// vecMin is the shortest column bandUpdate takes to the vector code: below
// one block of four rows the Go loop costs less than the call.
const vecMin = 4

// bandUpdate applies steps (1 or panelWidth) consecutive pivot steps of
// the band LU to each of cols columns. Column q's rows sit at
// c[q·stride+r], row 0 being the first step's pivot row, and step t's
// multiplier of row r at l[t·stride+r]. Step t sets row r −= u·l for
// t < r < e+t, where u is row t after steps 0…t−1, except where l == 0
// (±0 skips, NaN does not). Every element thus takes its steps in order,
// as one rank-1 update per step would give them. Columns may not overlap
// (stride ≥ e+steps−1). The four-step form needs e ≥ 4 and may take
// ragged = 3 more columns, the ones only the later
// steps reach: column cols+r takes steps r+1…3. On an amd64 CPU with AVX2,
// for more than vecMin rows, it runs four rows at a time, with the same
// roundings in the same order as bandUpdateGo, so every bit matches it.
func bandUpdate(c, l []float64, stride, cols, steps, e, ragged int) {
	if cols <= 0 {
		return
	}
	if (steps != 1 && (steps != panelWidth || e < panelWidth)) || e < 1 || stride < e+steps-1 ||
		(ragged != 0 && (ragged != panelWidth-1 || steps != panelWidth)) ||
		(cols+ragged-1)*stride+e+steps-1 > len(c) || (steps-1)*stride+e+steps-1 > len(l) {
		panic("la: bandUpdate: bad step or column count, overlapping columns, or a column past c or l")
	}
	if useAVX2 && e > vecMin {
		bandUpdateAVX2(c, l, stride, cols, steps, e, ragged)
		return
	}
	bandUpdateGo(c, l, stride, cols, steps, e, ragged)
}

// bandUpdateGo is bandUpdate in Go: the fallback off amd64 or without
// AVX2, and the reference the vector kernel is tested against. It runs
// along rows, so that u is the operand loaded in the loop, which puts it
// first in the compiled multiply, as the kernel has it.
func bandUpdateGo(c, l []float64, stride, cols, steps, e, ragged int) {
	for t := 0; t < steps; t++ {
		lt, reached := l[t*stride:], cols+min(ragged, t)
		for r := t + 1; r < e+t; r++ {
			m := lt[r]
			if m == 0 {
				continue
			}
			for o := 0; o < reached*stride; o += stride {
				c[o+r] -= float64(c[o+t] * m)
			}
		}
	}
}

// bandPivot returns the partial pivot of a column, x holding its rows from
// the diagonal down: the first index of the largest |x[i]|, and that
// magnitude. A NaN never wins, except in x[0], which then stands. x must
// not be empty.
func bandPivot(x []float64) (int, float64) {
	p, vMax := 0, math.Abs(x[0])
	for i := 1; i < len(x); i++ {
		if v := math.Abs(x[i]); v > vMax {
			p, vMax = i, v
		}
	}
	return p, vMax
}

// bandScale divides x by d in place, the multipliers of one pivot step,
// and returns how many quotients are not zero (a NaN counts).
func bandScale(x []float64, d float64) int {
	nz := 0
	for i := range x {
		x[i] /= d
		if x[i] != 0 {
			nz++
		}
	}
	return nz
}

// bandPanel's stop codes: a panel ends before the step whose pivot is off
// the diagonal (an interchange) or zero (the matrix is singular).
const (
	panelDone = iota
	panelSwap
	panelSingular
)

// bandPanel runs the pivot steps of a panel that need no interchange,
// each in full: step m's column holds its e_m = min(e, last−m+1) rows
// from the diagonal at x[m·ld:], and its pivot search, division and update
// of the panel's later columns are those of the general step loop. It
// stops before a step whose pivot is off the diagonal or zero, returning
// how many steps it ran and why it stopped; nz[m] gets step m's non-zero
// multiplier count. Every later column must lie within step m's reach. On
// an amd64 CPU with AVX2 the whole panel is one call to the vector
// kernel, with bandPanelGo's bits.
func bandPanel(x []float64, ld, e, last int, nz *[panelWidth]int) (nb, stop int) {
	if e < 1 || last < panelWidth-1 || ld < e+panelWidth-1 || (panelWidth-1)*ld+e > len(x) {
		panic("la: bandPanel: bad column length, or a column runs past x")
	}
	if useAVX2 {
		return bandPanelAVX2(x, ld, e, last, nz)
	}
	return bandPanelGo(x, ld, e, last, nz)
}

// bandPanelGo is bandPanel in Go: the fallback and the reference.
func bandPanelGo(x []float64, ld, e, last int, nz *[panelWidth]int) (nb, stop int) {
	for m := 0; m < panelWidth; m++ {
		em := min(e, last-m+1)
		col := x[m*ld : m*ld+em]
		p, vMax := bandPivot(col)
		switch {
		case vMax == 0:
			return m, panelSingular
		case p != 0:
			return m, panelSwap
		}
		nz[m] = bandScale(col[1:], col[0])
		if m < panelWidth-1 {
			// Column m+1 from row m starts one word before its diagonal.
			bandUpdateGo(x[m*ld+ld-1:], x[m*ld:], ld-1, panelWidth-1-m, 1, em, 0)
		}
	}
	return panelWidth, panelDone
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
	ld := 2*kl + ku + 1
	return &BandLU{n: n, kl: kl, ku: ku, ld: ld, data: make([]float64, n*ld), piv: make([]int, n)}
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
	if err := f.check(a); err != nil {
		return err
	}
	return f.factor(a)
}

// check verifies that a fits the workspace: its size, and every entry
// inside the declared band (only a workspace sized for a narrower matrix
// can fail that). A CSR row's columns increase, so its first and last
// bound it.
func (f *BandLU) check(a *CSR) error {
	if a.Rows() != f.n || a.Cols() != f.n {
		return fmt.Errorf("la: band workspace is %d×%d, matrix is %d×%d", f.n, f.n, a.Rows(), a.Cols())
	}
	for i := 0; i < f.n; i++ {
		cols, _ := a.RowNNZ(i)
		if len(cols) == 0 || (cols[0]-i >= -f.kl && cols[len(cols)-1]-i <= f.ku) {
			continue
		}
		for _, j := range cols {
			if j-i < -f.kl || j-i > f.ku {
				return fmt.Errorf("la: entry (%d,%d) outside band kl=%d ku=%d", i, j, f.kl, f.ku)
			}
		}
	}
	return nil
}

// bandLoad copies a checked matrix into the workspace a few rows ahead of
// the elimination, so that each column is cleared, filled and eliminated
// while it is still in cache. Every entry a leaves unwritten is +0, which
// the elimination's reach relies on; a column's fill rows are cleared
// only when an interchange may have written them since the last clear.
type bandLoad struct {
	f         *BandLU
	a         *CSR
	fill      bool // clear the fill rows too
	rows, col int  // rows copied so far; columns cleared so far
}

// to copies rows up to hi, first clearing every column they write into:
// row i writes columns up to i+ku. Fill rows shorter than a cache line are
// cleared with the rest, in one call.
func (b *bandLoad) to(hi int) {
	f := b.f
	kl, ku, ld, data := f.kl, f.ku, f.ld, f.data
	if b.rows > hi {
		return
	}
	if end := min(hi+ku, f.n-1) + 1; b.fill || kl < lineWords {
		clear(data[b.col*ld : end*ld])
		b.col = end
	} else {
		for ; b.col < end; b.col++ {
			clear(data[b.col*ld+kl : (b.col+1)*ld])
		}
	}
	for ; b.rows <= hi; b.rows++ {
		// Entry (i, j) sits at j·(ld−1) + kl+ku+i.
		i := b.rows
		cols, vals := b.a.RowNNZ(i)
		row := data[kl+ku+i:]
		for k, j := range cols {
			row[j*(ld-1)] = vals[k]
		}
	}
}

// lineWords is how many float64 a 64-byte cache line holds.
const lineWords = 8

// panelWidth is how many consecutive pivot steps the factor applies to each
// trailing column in one pass (bandUpdate's steps).
const panelWidth = 4

// factor is dgbtrf's right-looking elimination in panels of up to
// panelWidth pivots. Within a panel each pivot step k searches, swaps and
// divides column k and updates the panel's later columns at once, so the
// next pivot search sees them current; the columns right of the panel get
// the panel's steps afterwards, all of them per column in one pass. An
// element's updates still run in pivot order with the same operands, so the
// bits are those of one rank-1 update per step. A panel ends before a step
// that interchanges rows (such a step starts the next panel), since a swap
// must not overtake the deferred updates of the rows it moves.
func (f *BandLU) factor(a *CSR) error {
	n, kl, ku, ld := f.n, f.kl, f.ku, f.ld
	data := f.data
	dg := kl + ku // a column's diagonal, as an offset into it
	var ops int64
	var reachAt [panelWidth]int
	f.FactorOps, f.maxPivOff = 0, 0
	// The fill rows stay clean unless this factor interchanges rows; it
	// also clears them where an earlier one may have, and an abort leaves
	// columns it never reached as they were.
	load := bandLoad{f: f, a: a, fill: !f.fillClean}
	f.fillClean = false
	reach := 0 // rightmost column any row may hold a non-zero in (dgbtf2's JU)
	swapped := false
	for k := 0; k < n; {
		// Steps k…k+panelWidth−1 touch rows up to k+panelWidth−1+kl and,
		// through them, columns up to that plus ku.
		load.to(min(k+panelWidth-1+kl, n-1))
		win := min(k+panelWidth, n) // the panel's columns are k…win−1
		nb := 0
		if ku >= panelWidth-1 && win-k == panelWidth {
			// Four columns, each within every earlier step's reach: run the
			// panel's steps in one call until one would interchange rows.
			var nz [panelWidth]int
			var stop int
			nb, stop = bandPanel(data[k*ld+dg:], ld, kl+1, n-1-k, &nz)
			for t := 0; t < nb; t++ {
				s := k + t
				f.piv[s] = s
				reach = max(reach, min(s+ku, n-1))
				reachAt[t] = reach
				ops += int64(nz[t]) * int64(min(s+ku+kl, n-1)-s)
			}
			if stop == panelSingular {
				return ErrSingular
			}
		}
		if nb == 0 {
			// Otherwise step by step, a first step that interchanges
			// included.
			for s := k; s < win; s++ {
				// Partial pivot among rows s…s+rows of column s, contiguous
				// from the diagonal down.
				rows := min(kl, n-1-s)
				col := data[s*ld+dg : s*ld+dg+rows+1]
				p, vMax := bandPivot(col)
				if vMax == 0 {
					return ErrSingular
				}
				if p != 0 && s > k {
					break
				}
				f.piv[s] = s + p
				f.maxPivOff = max(f.maxPivOff, p)
				// Past the reach, rows s and s+p both still hold the load's +0.
				reach = max(reach, min(s+p+ku, n-1))
				if p != 0 {
					swapped = true
					// Row s of column j is at s·ld+dg+(j−s)·(ld−1); row s+p
					// follows it by p.
					for o := s*ld + dg; o <= s*ld+dg+(reach-s)*(ld-1); o += ld - 1 {
						data[o], data[o+p] = data[o+p], data[o]
					}
				}
				if rows > 0 {
					if nz := bandScale(col[1:], col[0]); nz > 0 {
						ops += int64(nz) * int64(min(s+ku+kl, n-1)-s)
					}
					if hi := min(win-1, reach); hi > s {
						// Columns s+1…hi of the panel, from row s down.
						bandUpdate(data[(s+1)*ld+dg-1:], data[s*ld+dg:], ld-1, hi-s, 1, rows+1, 0)
					}
				}
				reachAt[s-k] = reach
				nb++
			}
		}
		f.updateTrailing(k, nb, win, &reachAt)
		k += nb
	}
	f.FactorOps, f.fillClean = ops, !swapped
	return nil
}

// updateTrailing applies pivot steps k…k+nb−1 to the columns right of their
// panel, win…reachAt[nb−1]: column j takes step k+t when reachAt[t] ≥ j,
// the reach after that step. Columns that all nb = panelWidth steps reach
// take them in one bandUpdate pass when every step eliminates a full kl
// rows, and so do the three ragged ones right of them when the reach grew
// by one a step; the rest take the steps one at a time.
func (f *BandLU) updateTrailing(k, nb, win int, reachAt *[panelWidth]int) {
	n, kl, ld := f.n, f.kl, f.ld
	data := f.data
	dg := kl + f.ku
	// Column j from row k+t down starts at j·ld+dg+k+t−j, one stride ld−1
	// after column j−1's.
	j := win
	if nb == panelWidth && kl >= panelWidth-1 && k+panelWidth-1+kl <= n-1 && reachAt[0] >= j {
		// Each step reaching one column further than the last, as when no
		// interchange has widened the reach, leaves three ragged columns.
		ragged := 0
		if reachAt[panelWidth-1] == reachAt[0]+panelWidth-1 {
			ragged = panelWidth - 1
		}
		bandUpdate(data[j*ld+dg+k-j:], data[k*ld+dg:], ld-1, reachAt[0]-j+1, panelWidth, kl+1, ragged)
		j = reachAt[0] + 1 + ragged
	}
	for t := 0; t < nb; t++ {
		s := k + t
		if rows := min(kl, n-1-s); rows > 0 && reachAt[t] >= j {
			bandUpdate(data[j*ld+dg+s-j:], data[s*ld+dg:], ld-1, reachAt[t]-j+1, 1, rows+1, 0)
		}
	}
}

// Reset reshapes the workspace for an n×n matrix with bandwidths (kl, ku),
// reusing the backing storage whenever its capacity suffices. The
// factorization contents become undefined until the next Factor* call.
func (f *BandLU) Reset(n, kl, ku int) {
	ld := 2*kl + ku + 1
	f.n, f.kl, f.ku, f.ld = n, kl, ku, ld
	if cap(f.data) < n*ld {
		f.data = make([]float64, n*ld)
	}
	f.data = f.data[:n*ld]
	if cap(f.piv) < n {
		f.piv = make([]int, n)
	}
	f.piv = f.piv[:n]
	f.FactorOps, f.maxPivOff, f.fillClean = 0, 0, false
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
	x := dst
	if f.n > 0 && &dst[0] != &b[0] {
		copy(x, b)
	}
	f.forward(x)
	return f.back(x)
}

// forward applies the recorded row swaps and L⁻¹ to x in place. Column k
// of L is contiguous below the diagonal, and x[k] == 0 skips it.
func (f *BandLU) forward(x []float64) {
	n, kl, ld := f.n, f.kl, f.ld
	mult := f.data[kl+f.ku+1:] // column k's multipliers start at k·ld
	for k, p := range f.piv {
		if p != k {
			x[k], x[p] = x[p], x[k]
		}
		xk := x[k]
		if xk == 0 {
			continue
		}
		rows := min(kl, n-1-k)
		l, xs := mult[k*ld:k*ld+rows], x[k+1:k+1+rows]
		for i, v := range l {
			xs[i] -= float64(v * xk)
		}
	}
}

// back solves U·x = y in place, from the last row up. Row i of U runs
// along the columns, U(i, j) one stride ld−1 after U(i, j−1), and stops at
// column i+ku+maxPivOff.
func (f *BandLU) back(x []float64) error {
	n, ld := f.n, f.ld
	dg := f.kl + f.ku
	reach := f.ku + f.maxPivOff
	for i := n - 1; i >= 0; i-- {
		u, xs := f.data[i*ld+dg:], x[i+1:min(i+reach, n-1)+1]
		s := x[i]
		for j, o := 0, ld-1; j < len(xs); j, o = j+1, o+ld-1 {
			v := u[o]
			s -= float64(v * xs[j])
		}
		if u[0] == 0 {
			return ErrSingular
		}
		x[i] = s / u[0]
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
