package la

import (
	"fmt"
	"sort"
)

// COO is a coordinate-format builder for sparse matrices. Duplicate entries
// are summed when converting to CSR, which is convenient for stencil
// assembly: each PDE node contributes its couplings independently.
type COO struct {
	rows, cols int
	ri, ci     []int
	v          []float64
	// next is ToCSR's per-row write-cursor scratch, kept on the builder so
	// repeated conversions (tile extraction, pattern rebuilds in loops)
	// reuse it instead of reallocating.
	next []int
}

// NewCOO returns an empty rows×cols builder.
func NewCOO(rows, cols int) *COO {
	return &COO{rows: rows, cols: cols}
}

// Append adds value v at (i, j). Zero values are kept so that stencils retain
// explicit structural entries (important for Jacobians whose numeric values
// change between Newton iterations but whose pattern is fixed).
func (c *COO) Append(i, j int, v float64) {
	if i < 0 || i >= c.rows || j < 0 || j >= c.cols {
		panic(fmt.Sprintf("la: COO index (%d,%d) out of bounds %d×%d", i, j, c.rows, c.cols))
	}
	c.ri = append(c.ri, i)
	c.ci = append(c.ci, j)
	c.v = append(c.v, v)
}

// NNZ reports the number of stored (pre-deduplication) entries.
func (c *COO) NNZ() int { return len(c.v) }

// ToCSR converts the builder into compressed sparse row form, summing
// duplicates and sorting column indices within each row.
func (c *COO) ToCSR() *CSR {
	// Count entries per row; count doubles as the CSR row-pointer array
	// (the builder never reads it again).
	count := make([]int, c.rows+1)
	for _, i := range c.ri {
		count[i+1]++
	}
	for i := 0; i < c.rows; i++ {
		count[i+1] += count[i]
	}
	colIdx := make([]int, len(c.v))
	vals := make([]float64, len(c.v))
	if cap(c.next) < c.rows {
		c.next = make([]int, c.rows)
	}
	next := c.next[:c.rows]
	copy(next, count[:c.rows])
	for k, i := range c.ri {
		p := next[i]
		colIdx[p] = c.ci[k]
		vals[p] = c.v[k]
		next[i]++
	}
	m := &CSR{rows: c.rows, cols: c.cols, rowPtr: count, colIdx: colIdx, vals: vals}
	m.sortRowsAndDedup()
	return m
}

// Copy64i duplicates an int slice.
func Copy64i(src []int) []int {
	dst := make([]int, len(src))
	copy(dst, src)
	return dst
}

// CSR is a compressed-sparse-row matrix. Within each row the column indices
// are strictly increasing.
type CSR struct {
	rows, cols int
	rowPtr     []int
	colIdx     []int
	vals       []float64
}

// Rows reports the number of rows.
func (m *CSR) Rows() int { return m.rows }

// Cols reports the number of columns.
func (m *CSR) Cols() int { return m.cols }

// NNZ reports the number of stored entries.
func (m *CSR) NNZ() int { return len(m.vals) }

// rowSorted reports whether row i's column indices are strictly increasing
// (sorted with no duplicates).
func (m *CSR) rowSorted(i int) bool {
	for k := m.rowPtr[i] + 1; k < m.rowPtr[i+1]; k++ {
		if m.colIdx[k] <= m.colIdx[k-1] {
			return false
		}
	}
	return true
}

// sortRowsAndDedup sorts column indices in each row and merges duplicates.
// The deterministic stencil walks emit most rows already strictly
// increasing, so a one-pass check first skips the sort machinery entirely
// when the whole matrix is clean, and per-row when only some rows need work.
func (m *CSR) sortRowsAndDedup() {
	clean := true
	for i := 0; i < m.rows; i++ {
		if !m.rowSorted(i) {
			clean = false
			break
		}
	}
	if clean {
		return
	}
	newPtr := make([]int, m.rows+1)
	nc := m.colIdx[:0]
	nv := m.vals[:0]
	type ent struct {
		j int
		v float64
	}
	var scratch []ent
	for i := 0; i < m.rows; i++ {
		lo, hi := m.rowPtr[i], m.rowPtr[i+1]
		if m.rowSorted(i) {
			// Compact the already-clean row in place: the write cursor never
			// passes the read cursor, so the aliased copy is safe.
			for k := lo; k < hi; k++ {
				nc = append(nc, m.colIdx[k])
				nv = append(nv, m.vals[k])
			}
			newPtr[i+1] = len(nc)
			continue
		}
		scratch = scratch[:0]
		for k := lo; k < hi; k++ {
			scratch = append(scratch, ent{m.colIdx[k], m.vals[k]})
		}
		sort.Slice(scratch, func(a, b int) bool { return scratch[a].j < scratch[b].j })
		for k := 0; k < len(scratch); {
			j := scratch[k].j
			v := 0.0
			for k < len(scratch) && scratch[k].j == j {
				v += scratch[k].v
				k++
			}
			nc = append(nc, j)
			nv = append(nv, v)
		}
		newPtr[i+1] = len(nc)
	}
	m.rowPtr = newPtr
	m.colIdx = nc
	m.vals = nv
}

// At returns the value at (i, j), zero if the entry is not stored.
func (m *CSR) At(i, j int) float64 {
	lo, hi := m.rowPtr[i], m.rowPtr[i+1]
	idx := m.colIdx[lo:hi]
	k := sort.SearchInts(idx, j)
	if k < len(idx) && idx[k] == j {
		return m.vals[lo+k]
	}
	return 0
}

// SetExisting overwrites the stored entry at (i, j); it panics if the entry
// is not part of the sparsity pattern. Jacobian refreshes use this to reuse
// the structural pattern across Newton iterations.
func (m *CSR) SetExisting(i, j int, v float64) {
	lo, hi := m.rowPtr[i], m.rowPtr[i+1]
	idx := m.colIdx[lo:hi]
	k := sort.SearchInts(idx, j)
	if k < len(idx) && idx[k] == j {
		m.vals[lo+k] = v
		return
	}
	panic(fmt.Sprintf("la: SetExisting(%d,%d): entry not in pattern", i, j))
}

// RowNNZ returns the column indices and values of row i as shared slices.
func (m *CSR) RowNNZ(i int) ([]int, []float64) {
	lo, hi := m.rowPtr[i], m.rowPtr[i+1]
	return m.colIdx[lo:hi], m.vals[lo:hi]
}

// MulVec computes dst = M·x.
func (m *CSR) MulVec(dst, x []float64) {
	if len(x) != m.cols || len(dst) != m.rows {
		panic(fmt.Sprintf("la: CSR MulVec mismatch: %d×%d by %d into %d", m.rows, m.cols, len(x), len(dst)))
	}
	for i := 0; i < m.rows; i++ {
		lo, hi := m.rowPtr[i], m.rowPtr[i+1]
		s := 0.0
		for k := lo; k < hi; k++ {
			s += float64(m.vals[k] * x[m.colIdx[k]])
		}
		dst[i] = s
	}
}

// Residual computes dst = b − M·x.
func (m *CSR) Residual(dst, b, x []float64) {
	m.MulVec(dst, x)
	for i := range dst {
		dst[i] = b[i] - dst[i]
	}
}

// Diagonal extracts the main diagonal into a new slice; missing diagonal
// entries are zero.
func (m *CSR) Diagonal() []float64 {
	d := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		d[i] = m.At(i, i)
	}
	return d
}

// Clone returns a deep copy.
func (m *CSR) Clone() *CSR {
	return &CSR{
		rows: m.rows, cols: m.cols,
		rowPtr: Copy64i(m.rowPtr),
		colIdx: Copy64i(m.colIdx),
		vals:   Copy(m.vals),
	}
}

// ToDense expands the matrix, for tests and for small analog-sized systems.
func (m *CSR) ToDense() *Dense {
	d := NewDense(m.rows, m.cols)
	for i := 0; i < m.rows; i++ {
		for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
			d.Set(i, m.colIdx[k], m.vals[k])
		}
	}
	return d
}

// Transpose returns the CSR transpose.
func (m *CSR) Transpose() *CSR {
	b := NewCOO(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
			b.Append(m.colIdx[k], i, m.vals[k])
		}
	}
	return b.ToCSR()
}

// ScaleRow multiplies every stored entry of row i by s.
func (m *CSR) ScaleRow(i int, s float64) {
	for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
		m.vals[k] *= s
	}
}

// Scale multiplies every stored entry by s.
func (m *CSR) Scale(s float64) {
	for k := range m.vals {
		m.vals[k] *= s
	}
}

// ExtractSubmatrix returns the square submatrix of m restricted to the
// given global indices (rows and columns alike). idx must contain unique,
// in-range indices; the k-th row/column of the result corresponds to
// idx[k]. Entries of m coupling to indices outside idx are dropped — the
// "frozen neighbour" restriction used by nonlinear Gauss-Seidel domain
// decomposition.
func (m *CSR) ExtractSubmatrix(idx []int) *CSR {
	pos := make(map[int]int, len(idx))
	for k, g := range idx {
		pos[g] = k
	}
	b := NewCOO(len(idx), len(idx))
	for k, g := range idx {
		cols, vals := m.RowNNZ(g)
		for t, j := range cols {
			if c, ok := pos[j]; ok {
				b.Append(k, c, vals[t])
			}
		}
	}
	return b.ToCSR()
}

// Slot returns the storage index of entry (i, j) within the value array,
// or −1 if the entry is not in the pattern. Combined with SetSlotValue it
// lets stencil assemblers refresh a fixed-pattern matrix in place.
func (m *CSR) Slot(i, j int) int {
	lo, hi := m.rowPtr[i], m.rowPtr[i+1]
	idx := m.colIdx[lo:hi]
	k := sort.SearchInts(idx, j)
	if k < len(idx) && idx[k] == j {
		return lo + k
	}
	return -1
}

// SetSlotValue overwrites the stored value at a Slot index.
func (m *CSR) SetSlotValue(slot int, v float64) { m.vals[slot] = v }

// ZeroValues clears every stored value, keeping the pattern. Paired with
// AddSlotValue it supports accumulate-style in-place pattern refreshes.
func (m *CSR) ZeroValues() {
	for i := range m.vals {
		m.vals[i] = 0
	}
}

// AddSlotValue accumulates v at a Slot index.
func (m *CSR) AddSlotValue(slot int, v float64) { m.vals[slot] += v }

// ZeroRowsValues clears the stored values of rows [lo, hi), keeping the
// pattern — the per-shard zeroing step of parallel in-place pattern
// refreshes, where each shard owns a disjoint row block.
func (m *CSR) ZeroRowsValues(lo, hi int) {
	for k := m.rowPtr[lo]; k < m.rowPtr[hi]; k++ {
		m.vals[k] = 0
	}
}
