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
// With special set, a value byte that is a multiple of 16 picks a
// specialBits pattern instead.
func fuzzCSRFrom(n int, data []byte, special bool) (*CSR, int) {
	coo := NewCOO(n, n)
	appended := 0
	for len(data) >= 3 {
		i, j, v := int(data[0])%n, int(data[1])%n, float64(int8(data[2]))
		if special && data[2]%16 == 0 {
			v = math.Float64frombits(specialBits[int(data[2]/16)%len(specialBits)])
		}
		coo.Append(i, j, v)
		appended++
		data = data[3:]
	}
	return coo.ToCSR(), appended
}

// FuzzBandLU draws n up to 24, so row updates reach the vector kernels'
// full blocks as well as their masked last ones. With nRaw ≥ 128 a value
// byte that is a multiple of 16 becomes a specialBits pattern (±0, ±Inf,
// NaN payloads, subnormals). Every factor is held bit for bit to the
// row-major reference (entries, pivots, FactorOps, Solve output, NaNs
// included); the finite ones also to the full-span oracle.
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
	// A 16×16 band, kl = ku = 5, with a small diagonal (interchanges) and a
	// dense one (four-pivot panels), then the same with special values.
	band := func(diag byte) []byte {
		var d []byte
		for i := byte(0); i < 16; i++ {
			for j := max(i, 5) - 5; j <= min(i+5, 15); j++ {
				v := byte(3 + 7*i + 5*j)
				if i == j {
					v = diag
				}
				d = append(d, i, j, v)
			}
		}
		return d
	}
	f.Add(uint8(15), band(1))
	f.Add(uint8(15), band(90))
	f.Add(uint8(128+15), band(1))
	f.Add(uint8(128+15), band(90))
	f.Fuzz(func(t *testing.T, nRaw uint8, data []byte) {
		n := 1 + int(nRaw)%24
		special := nRaw >= 128
		m, _ := fuzzCSRFrom(n, data, special)
		lu, err := FactorBandLU(m)
		b := make([]float64, n)
		for i := range b {
			b[i] = float64(i + 1)
		}
		compareRowMajor(t, "FuzzBandLU", lu, err, m, b)
		if special {
			return // the full-span oracle multiplies the fill's +0 by Inf and NaN
		}
		// The full-span oracle must agree on singularity, and on every bit
		// of a finite solution.
		kl, ku := Bandwidths(m)
		ref := newRowMajorLU(n, kl, ku)
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
		m, appended := fuzzCSRFrom(n, data, false)
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

// FuzzSubScaled checks that the one-row update subScaled (the band
// Cholesky forward solve's), which takes the vector kernel where the CPU
// has one, writes the bits of the scalar reference subScaledGo, skipped
// when m == 0: for every length 0–67, sub-slice offset and float64 bit
// pattern, NaN payloads included, and without touching anything past
// len(y) or any of x.
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
		if m != 0 {
			subScaledGo(want[yo:yo+n], xbuf[xo:], m)
		}
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

// FuzzSubScaledRows checks that subScaledRows, which takes the vector
// kernel where the CPU has one, writes the bits of subScaledRowsGo on two
// shapes, NaN payloads included: strided rows (each row's multiplier in
// the word before it, one x row, fixed length) and the band Cholesky's
// (multipliers and x one slice, each row one shorter, x first divided by
// d), for 0–40 rows, lengths 0–67 and
// unaligned offsets. Words between and after the rows and past x start
// with their own values and must keep them, so a mask that reaches one
// lane too far fails.
func FuzzSubScaledRows(f *testing.F) {
	// sels gives word i of the y buffer, then of the x buffer, the
	// specialBits selector sel(i, inX).
	sels := func(ny, nx int, sel func(i int, inX bool) byte) []byte {
		d := make([]byte, 0, ny+nx)
		for i := 0; i < ny; i++ {
			d = append(d, sel(i, false))
		}
		for i := 0; i < nx; i++ {
			d = append(d, sel(i, true))
		}
		return d
	}
	cycle := func(i int, inX bool) byte {
		if inX {
			i += 5
		}
		return []byte{0, 4, 8, 12, 16, 20, 24, 28, 32, 36, 44, 48, 40}[i%13]
	}
	// Strided, four rows of five (stride 9): finite y, NaN multipliers and
	// NaN x with other payloads, so the product's operand order shows.
	f.Add(false, uint8(4), uint8(5), uint8(0), uint64(0), uint64(3), sels(4*9+3, 5+3, func(i int, inX bool) byte {
		switch {
		case inX:
			return 16
		case i%9 == 0:
			return 20
		}
		return 44
	}))
	// Strided, NaN y and NaN x with finite multipliers: the difference's
	// operand order shows.
	f.Add(false, uint8(3), uint8(6), uint8(0), uint64(0), uint64(5), sels(3*10+3, 6+3, func(i int, inX bool) byte {
		switch {
		case inX:
			return 28
		case i%10 == 0:
			return 44
		}
		return 24
	}))
	// Special values everywhere (±0 multipliers are skipped), long rows.
	f.Add(false, uint8(40), uint8(67), uint8(6), uint64(0), uint64(7), sels(2+40*71+3, 1+67+3, cycle))
	// Band Cholesky at b = 32 with the division, then NaN x divided by a
	// NaN d (the quotient's operand order shows), then rows past n0, then
	// a division whose last block is partial.
	f.Add(true, uint8(32), uint8(32), uint8(16), uint64(0x3ff8000000000000), uint64(11), []byte{})
	f.Add(true, uint8(6), uint8(11), uint8(16), specialBits[5], uint64(13), sels(6*14+3, 11+3, func(_ int, inX bool) byte {
		if inX {
			return 16
		}
		return 44
	}))
	f.Add(true, uint8(40), uint8(5), uint8(27), uint64(0x4000000000000000), uint64(17), sels(3+6*8+3, 2+5+3, cycle))
	f.Add(true, uint8(29), uint8(29), uint8(21), uint64(0x4008000000000000), uint64(19), []byte{})
	f.Fuzz(func(t *testing.T, chol bool, rowsRaw, nRaw, opts uint8, dBits, seed uint64, data []byte) {
		const guard = 3
		n0, rows := int(nRaw)%68, int(rowsRaw)%41
		yo, xo := int(opts)%4, int(opts>>2)%4
		var ystride, xstride, mstride, dn, nd int
		if chol {
			rows = min(rows, n0+1)
			ystride, xstride, mstride, dn = n0+guard, 1, 1, 1
			if opts&16 != 0 {
				nd = n0
			}
		} else {
			ystride, mstride = n0+1+guard, n0+1+guard
		}
		ybuf := make([]float64, yo+rows*ystride+guard)
		xbuf := make([]float64, xo+n0+guard)
		data = fuzzFloats(ybuf, data, seed|1)
		fuzzFloats(xbuf, data, ^seed|1)
		d := math.Float64frombits(dBits)
		// views cuts y, x and the multipliers out of the two buffers, with
		// the aliasing the factor they model has.
		views := func(yb, xb []float64) (y, x, m []float64) {
			if chol {
				return yb[yo:], xb[xo:], xb[xo:]
			}
			return yb[yo+1:], xb[xo:], yb[yo:]
		}
		wantY := append([]float64(nil), ybuf...)
		wantX := append([]float64(nil), xbuf...)
		y, x, m := views(wantY, wantX)
		subScaledRowsGo(y, x, m, ystride, xstride, mstride, n0, dn, rows, d, nd)
		y, x, m = views(ybuf, xbuf)
		subScaledRows(y, x, m, ystride, xstride, mstride, n0, dn, rows, d, nd)
		for i := range ybuf {
			if g, w := math.Float64bits(ybuf[i]), math.Float64bits(wantY[i]); g != w {
				t.Fatalf("rows=%d n0=%d: y word %d (row %d) = %#x, subScaledRowsGo %#x", rows, n0, i-yo, (i-yo)/ystride, g, w)
			}
		}
		for i := range xbuf {
			if g, w := math.Float64bits(xbuf[i]), math.Float64bits(wantX[i]); g != w {
				t.Fatalf("rows=%d n0=%d nd=%d: x[%d] = %#x, subScaledRowsGo %#x", rows, n0, nd, i-xo, g, w)
			}
		}
	})
}

// FuzzBandKernels holds the band-LU vector kernels to their Go references
// bit for bit, NaN payloads included: bandUpdate with one step, or four
// with and without the three ragged columns, and bandPanel, full or with
// its last steps' columns cut short. Values are any float64 pattern the data picks (±0, ±Inf,
// NaNs with distinct payloads, subnormals), column lengths e run 0–67,
// and the words past every column, and past the buffers, must keep their
// values, so a mask that reaches one lane too far fails.
func FuzzBandKernels(f *testing.F) {
	// sel repeats one specialBits selector n times.
	sel := func(b byte, n int) []byte {
		d := make([]byte, n)
		for i := range d {
			d[i] = b
		}
		return d
	}
	for kind := uint8(0); kind < 4; kind++ {
		f.Add(kind, uint8(33), uint8(5), uint8(0), uint64(3), []byte{})
		f.Add(kind, uint8(7), uint8(2), uint8(1), uint64(5), []byte{0, 4, 8, 12, 40, 44, 48, 36, 32, 28})
	}
	// NaN columns against NaN multipliers of another payload: the product's
	// and the difference's operand order show.
	f.Add(uint8(2), uint8(13), uint8(3), uint8(0), uint64(7), append(sel(16, 60), sel(20, 60)...))
	f.Add(uint8(0), uint8(10), uint8(2), uint8(2), uint64(9), append(sel(20, 30), sel(24, 30)...))
	f.Add(uint8(3), uint8(21), uint8(0), uint8(3), uint64(11), sel(28, 200))
	// Multipliers that are mostly ±0, so the blends run.
	f.Add(uint8(1), uint8(40), uint8(4), uint8(0), uint64(13), append(sel(48, 150), sel(0, 150)...))
	f.Fuzz(func(t *testing.T, kind, eRaw, colsRaw, opts uint8, seed uint64, data []byte) {
		if !useAVX2 {
			t.Skip("no AVX2 kernels on this CPU or architecture")
		}
		const guard = 5
		e := int(eRaw) % 68
		ld := e + 1 + int(opts)%5 // bandPanel's column length: its e rows and then some
		// twin fills two identical buffers of n words from the data.
		twin := func(n int, salt uint64) ([]float64, []float64) {
			a := make([]float64, n)
			data = fuzzFloats(a, data, seed^salt|1)
			return a, append([]float64(nil), a...)
		}
		same := func(what string, vec, ref []float64) {
			t.Helper()
			for i := range vec {
				if g, w := math.Float64bits(vec[i]), math.Float64bits(ref[i]); g != w {
					t.Fatalf("kind %d e=%d: %s word %d = %#x, Go %#x", kind, e, what, i, g, w)
				}
			}
		}
		switch kind % 4 {
		case 0, 1, 2: // bandUpdate: one step; four; four and ragged
			steps, ragged := 1, 0
			if kind%4 > 0 {
				steps, e = panelWidth, max(e, panelWidth)
			}
			if kind%4 == 2 {
				ragged = panelWidth - 1
			}
			e = max(e, 1)
			// Columns one stride apart must not overlap: rows run to e+steps−2.
			cols, stride := 1+int(colsRaw)%6, e+steps-1+int(opts)%5
			c, cRef := twin((cols+ragged-1)*stride+e+steps-1+guard, 1)
			l, lRef := twin((steps-1)*stride+e+steps-1+guard, 2)
			bandUpdateAVX2(c, l, stride, cols, steps, e, ragged)
			bandUpdateGo(cRef, lRef, stride, cols, steps, e, ragged)
			same("column", c, cRef)
			same("multiplier", l, lRef)
		case 3: // bandPanel, its last rows cut short when last < e+2
			// The window columns, from row m down, must not overlap.
			e = max(e, 1)
			ld += panelWidth
			last := panelWidth - 1 + int(colsRaw)%(e+3)
			x, xRef := twin((panelWidth-1)*ld+e+guard, 3)
			var nz, nzRef [panelWidth]int
			nb, stop := bandPanelAVX2(x, ld, e, last, &nz)
			nbRef, stopRef := bandPanelGo(xRef, ld, e, last, &nzRef)
			if nb != nbRef || stop != stopRef || nz != nzRef {
				t.Fatalf("e=%d: panel ran %d steps (stop %d, nz %v), Go %d (stop %d, nz %v)", e, nb, stop, nz, nbRef, stopRef, nzRef)
			}
			same("panel", x, xRef)
		}
	})
}
