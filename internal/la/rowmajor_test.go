package la

import (
	"errors"
	"fmt"
	"math"
	"testing"
)

// rowMajorLU is the band LU as it stood before the column-major layout,
// kept as the reference the factor is held to bit for bit. Working row i
// holds matrix columns i−kl … i+ku+kl at data[i*w : (i+1)*w],
// w = 2·kl+ku+1, entry (i, j) at offset j−i+kl, and each pivot step swaps
// rows k and piv[k] over columns k…reach, then divides and updates rows
// k+1…k+kl with one subScaledRows call.
type rowMajorLU struct {
	n, kl, ku, w int
	data         []float64
	piv          []int
	maxPivOff    int
	FactorOps    int64
}

func newRowMajorLU(n, kl, ku int) *rowMajorLU {
	w := 2*kl + ku + 1
	return &rowMajorLU{n: n, kl: kl, ku: ku, w: w, data: make([]float64, n*w), piv: make([]int, n)}
}

// at returns entry (i, j), −kl ≤ j−i ≤ ku+kl.
func (f *rowMajorLU) at(i, j int) float64 { return f.data[i*f.w+j-i+f.kl] }

func (f *rowMajorLU) load(a *CSR) error {
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
				return fmt.Errorf("la: entry (%d,%d) outside band kl=%d ku=%d", i, j, f.kl, f.ku)
			}
			row[off] = vals[k]
		}
	}
	return nil
}

func (f *rowMajorLU) factor() error {
	n, kl, ku, w := f.n, f.kl, f.ku, f.w
	data := f.data
	var ops int64
	f.maxPivOff = 0
	reach := 0
	for k := 0; k < n; k++ {
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
		reach = max(reach, min(iMax+ku, n-1))
		span := reach - k + 1
		rowK := data[k*w+kl : k*w+kl+span]
		if iMax != k {
			rowM := data[iMax*w+k-iMax+kl : iMax*w+k-iMax+kl+span]
			for t := range rowK {
				rowK[t], rowM[t] = rowM[t], rowK[t]
			}
		}
		rows := iHi - k
		if rows == 0 {
			continue
		}
		// Working row i's column k is at i·(w−1)+k+kl, one stride w−1
		// after row i−1's.
		full := int64(min(k+ku+kl, n-1) - k)
		first := (k+1)*(w-1) + k + kl
		for base := first; base < first+rows*(w-1); base += w - 1 {
			m := data[base] / rowK[0]
			data[base] = m
			if m != 0 {
				ops += full
			}
		}
		subScaledRows(data[first+1:], rowK[1:], data[first:], w-1, 0, w-1, span-1, 0, rows, 1, 0)
	}
	f.FactorOps = ops
	return nil
}

func (f *rowMajorLU) solve(dst, b []float64) error {
	n, kl, ku, w := f.n, f.kl, f.ku, f.w
	data := f.data
	x := dst
	copy(x, b)
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

// compareRowMajor factors a with the row-major reference and checks that
// got, factored from a by the package with error gotErr, agrees bit for
// bit: the same error and, on success, the same pivots, FactorOps, every
// in-band entry of L and U, and Solve's error and output on b. It returns
// the reference's row interchanges, or −1 if the matrix is singular.
func compareRowMajor(t *testing.T, name string, got *BandLU, gotErr error, a *CSR, b []float64) int {
	t.Helper()
	ref := newRowMajorLU(got.n, got.kl, got.ku)
	if err := ref.load(a); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	refErr := ref.factor()
	if !errors.Is(gotErr, refErr) {
		t.Fatalf("%s: factor error %v, row-major %v", name, gotErr, refErr)
	}
	if refErr != nil {
		return -1
	}
	if got.FactorOps != ref.FactorOps {
		t.Fatalf("%s: FactorOps %d, row-major %d", name, got.FactorOps, ref.FactorOps)
	}
	swaps := 0
	for k, p := range ref.piv {
		if got.piv[k] != p {
			t.Fatalf("%s: piv[%d] = %d, row-major %d", name, k, got.piv[k], p)
		}
		if p != k {
			swaps++
		}
	}
	n, kl, ku := ref.n, ref.kl, ref.ku
	for i := 0; i < n; i++ {
		for j := max(0, i-kl); j <= min(n-1, i+ku+kl); j++ {
			if g, r := math.Float64bits(BandLUEntry(got, i, j)), math.Float64bits(ref.at(i, j)); g != r {
				t.Fatalf("%s: factor entry (%d,%d) = %#x, row-major %#x", name, i, j, g, r)
			}
		}
	}
	x, xr := make([]float64, n), make([]float64, n)
	gotErr, refErr = got.Solve(x, b), ref.solve(xr, b)
	if !errors.Is(gotErr, refErr) {
		t.Fatalf("%s: solve error %v, row-major %v", name, gotErr, refErr)
	}
	for i := range x {
		if g, r := math.Float64bits(x[i]), math.Float64bits(xr[i]); g != r {
			t.Fatalf("%s: x[%d] = %#x, row-major %#x", name, i, g, r)
		}
	}
	return swaps
}
