package la

import (
	"encoding/binary"
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

// FuzzBandLU draws n up to 24, so row updates reach the vector kernel's
// minimum length.
func FuzzBandLU(f *testing.F) {
	f.Add(uint8(3), []byte{0, 0, 4, 1, 1, 4, 2, 2, 4, 0, 1, 1, 1, 0, 1})
	f.Add(uint8(1), []byte{0, 0, 0})
	// A 20×20 diagonal plus corners far off it: pivoting on row 19 at step
	// 0 makes every update run across the whole matrix.
	wide := []byte{0, 12, 5, 15, 1, 9, 19, 0, 7, 6, 18, 3}
	for i := byte(0); i < 20; i++ {
		wide = append(wide, i, i, 4)
	}
	f.Add(uint8(19), wide)
	f.Fuzz(func(t *testing.T, nRaw uint8, data []byte) {
		n := 1 + int(nRaw)%24
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

// specialBits are the float64 patterns the row-update fuzzer splices in:
// ±0, ±Inf, quiet and signalling NaNs with distinct payloads, subnormals,
// one and the largest finite value.
var specialBits = [...]uint64{
	0, 1 << 63,
	0x7ff0000000000000, 0xfff0000000000000,
	0x7ff8000000000001, 0xfff80000000abcde, 0x7ff0000000000123, 0xfff4000000000000,
	1, 0x000fffffffffffff, 0x800123456789abcd,
	0x3ff0000000000000, 0x7fefffffffffffff,
}

// fuzzFloats fills dst from data: a selector byte that is a multiple of 4
// picks a special pattern, any other takes the next eight bytes as raw
// bits. Once data runs out the values continue from an xorshift of seed.
func fuzzFloats(dst []float64, data []byte, seed uint64) []byte {
	for i := range dst {
		switch {
		case len(data) > 0 && data[0]%4 == 0:
			dst[i] = math.Float64frombits(specialBits[int(data[0]/4)%len(specialBits)])
			data = data[1:]
		case len(data) >= 9:
			dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[1:9]))
			data = data[9:]
		default:
			data = nil
			seed ^= seed << 13
			seed ^= seed >> 7
			seed ^= seed << 17
			dst[i] = math.Float64frombits(seed)
		}
	}
	return data
}

// FuzzSubScaled checks that the dispatching row update subScaled, which
// takes the vector kernel where the CPU has one, writes the bits of the
// scalar reference subScaledGo: for every length 0–67, sub-slice offset
// and float64 bit pattern, NaN payloads included, and without touching
// anything past len(y) or any of x.
func FuzzSubScaled(f *testing.F) {
	nan := func(sel byte, n int) []byte {
		d := make([]byte, n)
		for i := range d {
			d[i] = sel
		}
		return d
	}
	f.Add(uint64(0x3fe0000000000000), uint64(1), uint8(13), uint8(1), uint8(2), []byte{})
	f.Add(uint64(0xbff8000000000000), uint64(7), uint8(67), uint8(3), uint8(0), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 0, 4, 8, 12})
	// Finite y, every x a NaN with one payload and m a NaN with another:
	// the surviving payload shows the multiply's operand order.
	f.Add(specialBits[5], uint64(3), uint8(11), uint8(0), uint8(1), append(nan(44, 14), nan(16, 15)...))
	f.Add(specialBits[4], uint64(5), uint8(21), uint8(2), uint8(3), append(nan(48, 26), nan(20, 27)...))
	f.Add(uint64(1), uint64(9), uint8(33), uint8(1), uint8(1), []byte{36, 40, 44, 0, 8, 12, 28, 32, 48})
	f.Fuzz(func(t *testing.T, mBits, seed uint64, nRaw, yOff, xOff uint8, data []byte) {
		n, yo, xo := int(nRaw)%68, int(yOff)%4, int(xOff)%4
		const guard = 3 // words past len(y), and spare length in x
		ybuf := make([]float64, yo+n+guard)
		xbuf := make([]float64, xo+n+guard)
		data = fuzzFloats(ybuf, data, seed|1)
		fuzzFloats(xbuf, data, ^seed|1)
		m := math.Float64frombits(mBits)
		want := append([]float64(nil), ybuf...)
		xKeep := append([]float64(nil), xbuf...)
		subScaledGo(want[yo:yo+n], xbuf[xo:], m)
		subScaled(ybuf[yo:yo+n], xbuf[xo:], m)
		for i := range ybuf {
			if g, w := math.Float64bits(ybuf[i]), math.Float64bits(want[i]); g != w {
				t.Fatalf("n=%d y[%d] = %#x, subScaledGo %#x", n, i-yo, g, w)
			}
		}
		for i := range xbuf {
			if g, w := math.Float64bits(xbuf[i]), math.Float64bits(xKeep[i]); g != w {
				t.Fatalf("n=%d x[%d] changed to %#x from %#x", n, i-xo, g, w)
			}
		}
	})
}
