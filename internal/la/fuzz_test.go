package la

import (
	"errors"
	"math"
	"testing"
)

// The fuzz targets assert totality and numerical sanity of the direct
// solvers: arbitrary inputs must produce a solution or a sentinel error,
// never a panic, and when the fuzzer happens to build a strictly
// diagonally dominant system — where the condition number is provably
// bounded — the residual must actually be small.

func allFinite(xs ...[]float64) bool {
	for _, x := range xs {
		for _, v := range x {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e6 {
				return false
			}
		}
	}
	return true
}

func maxAbs(xs []float64) float64 {
	m := 0.0
	for _, v := range xs {
		m = math.Max(m, math.Abs(v))
	}
	return m
}

// fuzzCSRFrom builds an n×n CSR from a byte-stream of (row, col, value)
// triplets with small-integer values, so duplicate accumulation is exact.
func fuzzCSRFrom(n int, data []byte) (*CSR, int) {
	coo := NewCOO(n, n)
	appended := 0
	for len(data) >= 3 {
		i, j, v := int(data[0])%n, int(data[1])%n, float64(int8(data[2]))
		coo.Append(i, j, v)
		appended++
		data = data[3:]
	}
	return coo.ToCSR(), appended
}

func FuzzBandLU(f *testing.F) {
	f.Add(uint8(3), []byte{0, 0, 4, 1, 1, 4, 2, 2, 4, 0, 1, 1, 1, 0, 1})
	f.Add(uint8(1), []byte{0, 0, 0})
	f.Fuzz(func(t *testing.T, nRaw uint8, data []byte) {
		n := 1 + int(nRaw)%8
		m, _ := fuzzCSRFrom(n, data)
		lu, err := FactorBandLU(m)
		// The full-span oracle must agree on singularity, and on every bit
		// of a finite solution.
		kl, ku := Bandwidths(m)
		ref := NewBandLUWorkspace(n, kl, ku)
		if err := ref.load(m); err != nil {
			t.Fatal(err)
		}
		if refErr := fullSpanFactor(ref); !errors.Is(err, refErr) {
			t.Fatalf("factor error %v, full span %v", err, refErr)
		}
		if err != nil {
			return // singular systems are in-contract
		}
		if lu.FactorOps != ref.FactorOps {
			t.Fatalf("FactorOps %d, full span %d", lu.FactorOps, ref.FactorOps)
		}
		for k, p := range ref.piv {
			if lu.piv[k] != p {
				t.Fatalf("piv[%d] = %d, full span %d", k, lu.piv[k], p)
			}
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = float64(i + 1)
		}
		x, xr := make([]float64, n), make([]float64, n)
		if err := lu.Solve(x, b); err != nil {
			return
		}
		if err := fullSpanSolve(ref, xr, b); err == nil && allFinite(xr) {
			for i := range x {
				if math.Float64bits(x[i]) != math.Float64bits(xr[i]) {
					t.Fatalf("x[%d] = %x, full span %x", i, math.Float64bits(x[i]), math.Float64bits(xr[i]))
				}
			}
		}
		if !allFinite(x) {
			return // overflow on near-singular input is acceptable
		}
		// Integer matrix, modest size: dominance again certifies the residual.
		for i := 0; i < n; i++ {
			off := 0.0
			for j := 0; j < n; j++ {
				if j != i {
					off += math.Abs(m.At(i, j))
				}
			}
			if math.Abs(m.At(i, i)) < off+1 {
				return
			}
		}
		r := make([]float64, n)
		m.Residual(r, b, x)
		tol := 1e-8 * float64(n) * (1 + maxAbs(b) + maxAbs(x))
		if maxAbs(r) > tol {
			t.Fatalf("residual %g exceeds %g on a diagonally dominant system", maxAbs(r), tol)
		}
	})
}

func FuzzCSR(f *testing.F) {
	f.Add(uint8(4), []byte{0, 0, 2, 1, 1, 3, 0, 0, 1, 3, 2, 5})
	f.Add(uint8(1), []byte{})
	f.Fuzz(func(t *testing.T, nRaw uint8, data []byte) {
		n := 1 + int(nRaw)%8
		m, appended := fuzzCSRFrom(n, data)
		if m.NNZ() > appended {
			t.Fatalf("NNZ %d exceeds appended triplets %d", m.NNZ(), appended)
		}
		// Transposing twice is the identity; values are exact integers.
		tt := m.Transpose().Transpose()
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if m.At(i, j) != tt.At(i, j) {
					t.Fatalf("transpose^2 mismatch at (%d,%d): %g vs %g", i, j, m.At(i, j), tt.At(i, j))
				}
			}
		}
		// MulVec with the all-ones vector returns exact integer row sums.
		ones := make([]float64, n)
		for i := range ones {
			ones[i] = 1
		}
		got := make([]float64, n)
		m.MulVec(got, ones)
		for i := 0; i < n; i++ {
			sum := 0.0
			for j := 0; j < n; j++ {
				sum += m.At(i, j)
			}
			if got[i] != sum {
				t.Fatalf("row %d: MulVec %g, At-sum %g", i, got[i], sum)
			}
		}
	})
}
