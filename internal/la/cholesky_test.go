package la

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// normalEquations assembles AᵀA + εI as an explicit CSR, so the general
// band LU can factor the matrix BandCholesky factors. Each entry sums its
// products over the rows of A in increasing order, skipping A[k][i] = 0,
// the order BandCholesky's load uses, so the upper triangle holds the
// load's bits.
func normalEquations(a *CSR, eps float64) *CSR {
	n := a.Cols()
	sum, set := make([]float64, n*n), make([]bool, n*n)
	for k := 0; k < a.Rows(); k++ {
		cols, vals := a.RowNNZ(k)
		for p, i := range cols {
			if vals[p] == 0 {
				continue
			}
			for q, j := range cols {
				sum[i*n+j] += float64(vals[p] * vals[q])
				set[i*n+j] = true
			}
		}
	}
	b := NewCOO(n, n)
	for i := 0; i < n; i++ {
		sum[i*n+i] += eps
		set[i*n+i] = true
		for j := 0; j < n; j++ {
			if set[i*n+j] {
				b.Append(i, j, sum[i*n+j])
			}
		}
	}
	return b.ToCSR()
}

// checkLoadBits fails unless ch, freshly loaded, holds the upper band of
// ata bit for bit.
func checkLoadBits(t *testing.T, ch *BandCholesky, ata *CSR) {
	t.Helper()
	for i := 0; i < ch.n; i++ {
		for off := 0; off <= min(ch.b, ch.n-1-i); off++ {
			if g, w := ch.data[i*ch.w+off], ata.At(i, i+off); math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("loaded (%d,%d) = %x, assembled %x", i, i+off, math.Float64bits(g), math.Float64bits(w))
			}
		}
	}
}

// refCholeskyFactor is BandCholesky.factor with each row update written
// out as a scalar loop, in the style of fullSpanFactor: the bit-exact
// reference for the package factor, whatever kernel subScaledRows
// dispatches to. f must hold a loaded, unfactored matrix.
func refCholeskyFactor(f *BandCholesky) error {
	n, w := f.n, f.w
	data := f.data
	for k := 0; k < n; k++ {
		rowK := data[k*w : k*w+min(f.b, n-1-k)+1]
		d := rowK[0]
		if !(d > 0) {
			return ErrSingular
		}
		r := math.Sqrt(d)
		rowK[0] = r
		for t := 1; t < len(rowK); t++ {
			rowK[t] /= r
		}
		for t := 1; t < len(rowK); t++ {
			m := rowK[t]
			if m == 0 {
				continue
			}
			row := data[(k+t)*w:]
			for j := t; j < len(rowK); j++ {
				row[j-t] -= float64(m * rowK[j])
			}
		}
	}
	return nil
}

// refCholeskySolve is BandCholesky.SolveInto with the forward pass written
// out as a scalar loop and the backward pass's four partial sums indexed.
func refCholeskySolve(f *BandCholesky, x []float64) {
	n, w := f.n, f.w
	data := f.data
	for k := 0; k < n; k++ {
		row := data[k*w : k*w+min(f.b, n-1-k)+1]
		xk := x[k] / row[0]
		x[k] = xk
		if xk == 0 {
			continue
		}
		for j := 1; j < len(row); j++ {
			x[k+j] -= float64(xk * row[j])
		}
	}
	for i := n - 1; i >= 0; i-- {
		row := data[i*w : i*w+min(f.b, n-1-i)+1]
		var s [4]float64
		m := len(row) - 1
		for j := 1; j <= m; j++ {
			if j <= m-m%4 {
				s[(j-1)%4] += float64(row[j] * x[i+j])
			} else {
				s[0] += float64(row[j] * x[i+j])
			}
		}
		x[i] = (x[i] - ((s[0] + s[1]) + (s[2] + s[3]))) / row[0]
	}
}

// checkCholeskyRef factors AᵀA + εI with FactorNormalFrom and with
// refCholeskyFactor, and fails unless both agree on the error, on every
// bit of the factor and on every bit of SolveInto's answer for rhs.
func checkCholeskyRef(t *testing.T, name string, a *CSR, eps float64, rhs []float64) {
	t.Helper()
	kl, ku := Bandwidths(a)
	got, ref := NewBandCholesky(a.Rows(), kl+ku), NewBandCholesky(a.Rows(), kl+ku)
	gotErr := got.FactorNormalFrom(a, eps)
	if err := ref.loadNormal(a, eps); err != nil {
		t.Fatal(err)
	}
	if refErr := refCholeskyFactor(ref); !errors.Is(gotErr, refErr) {
		t.Fatalf("%s: factor error %v, scalar reference %v", name, gotErr, refErr)
	}
	if gotErr != nil {
		return
	}
	for q, v := range ref.data {
		if g := got.data[q]; math.Float64bits(g) != math.Float64bits(v) {
			t.Fatalf("%s: factor storage [%d] = %x, scalar reference %x", name, q, math.Float64bits(g), math.Float64bits(v))
		}
	}
	x, xr := Copy(rhs), Copy(rhs)
	if err := got.SolveInto(x); err != nil {
		t.Fatal(err)
	}
	refCholeskySolve(ref, xr)
	for i := range x {
		if math.Float64bits(x[i]) != math.Float64bits(xr[i]) {
			t.Fatalf("%s: x[%d] = %x, scalar reference %x", name, i, math.Float64bits(x[i]), math.Float64bits(xr[i]))
		}
	}
}

// TestBandCholeskyMatchesScalarRef pins the factor and SolveInto to the
// scalar reference bit for bit on random bands A, with and without
// explicit ±0 entries, whose normal equations are wide enough for row
// updates of 8 and more.
func TestBandCholeskyMatchesScalarRef(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	shapes := [][3]int{{1, 0, 0}, {9, 0, 3}, {20, 5, 2}, {33, 6, 6}, {40, 12, 3}, {64, 8, 8}}
	for _, sh := range shapes {
		n, kl, ku := sh[0], sh[1], sh[2]
		for _, zeros := range []bool{false, true} {
			for _, eps := range []float64{1e-3, 1} {
				a := swapBanded(rng, n, kl, ku, zeros)
				name := fmt.Sprintf("n=%d kl=%d ku=%d zeros=%v eps=%g", n, kl, ku, zeros, eps)
				checkCholeskyRef(t, name, a, eps, randomVec(rng, n))
			}
		}
	}
}

func TestBandCholeskyMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 15; trial++ {
		n := 4 + rng.Intn(20)
		// Random banded matrix, possibly singular — normal equations must
		// still factor thanks to the εI shift.
		bld := NewCOO(n, n)
		dn := NewDense(n, n)
		for i := 0; i < n; i++ {
			for j := max(0, i-2); j <= min(n-1, i+1); j++ {
				v := rng.NormFloat64()
				bld.Append(i, j, v)
				dn.Set(i, j, v)
			}
		}
		a := bld.ToCSR()
		const eps = 1e-3
		ws := NewBandCholesky(n, 3)
		if err := ws.loadNormal(a, eps); err != nil {
			t.Fatal(err)
		}
		checkLoadBits(t, ws, normalEquations(a, eps))
		if err := ws.FactorNormalFrom(a, eps); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// Dense reference: (AᵀA + εI)·x = Aᵀ·g.
		at := dn.Transpose()
		ata := Mul(at, dn)
		for i := 0; i < n; i++ {
			ata.Add(i, i, eps)
		}
		g := randomVec(rng, n)
		atg := make([]float64, n)
		a.MulTransVec(atg, g)
		// Cross-check MulTransVec against the dense transpose.
		atgDense := make([]float64, n)
		at.MulVec(atgDense, g)
		vecAlmostEq(t, atg, atgDense, 1e-12)

		want, err := SolveDense(ata, atg)
		if err != nil {
			t.Fatal(err)
		}
		got := Copy(atg)
		if err := ws.SolveInto(got); err != nil {
			t.Fatal(err)
		}
		vecAlmostEq(t, got, want, 1e-8)
	}
}

func TestBandCholeskySingularMatrix(t *testing.T) {
	// An exactly singular matrix: the shifted normal equations still factor.
	bld := NewCOO(2, 2)
	bld.Append(0, 0, 1)
	bld.Append(0, 1, 1)
	bld.Append(1, 0, 1)
	bld.Append(1, 1, 1)
	ws := NewBandCholesky(2, 2)
	if err := ws.FactorNormalFrom(bld.ToCSR(), 1e-3); err != nil {
		t.Fatalf("shifted normal equations must factor a singular matrix: %v", err)
	}
	// Unshifted, a zero column leaves a zero pivot, and a NaN entry a NaN
	// one: both are ErrSingular, never a factor that solves to NaN.
	bld = NewCOO(2, 2)
	bld.Append(0, 0, 1)
	bld.Append(1, 0, 1)
	if err := ws.FactorNormalFrom(bld.ToCSR(), 0); !errors.Is(err, ErrSingular) {
		t.Fatalf("zero pivot: got %v, want ErrSingular", err)
	}
	bld = NewCOO(2, 2)
	bld.Append(0, 0, 1)
	bld.Append(1, 1, math.NaN())
	if err := ws.FactorNormalFrom(bld.ToCSR(), 1e-3); !errors.Is(err, ErrSingular) {
		t.Fatalf("NaN pivot: got %v, want ErrSingular", err)
	}
}

// FuzzBandCholesky feeds arbitrary small integer matrices through the
// normal-equation factor with ε = 1, which bounds every eigenvalue of
// AᵀA + εI below by 1: the load must hold the assembled matrix's bits, the
// factor must succeed, the residual must be at rounding level, the general
// band LU of the assembled matrix must agree to within the conditioning
// bound, and the factor and solve must hold the scalar reference's bits.
// n reaches 24, so row updates reach the vector kernel's eight-wide loop
// as well as its masked last block.
func FuzzBandCholesky(f *testing.F) {
	f.Add(uint8(3), []byte{0, 0, 4, 1, 1, 4, 2, 2, 4, 0, 1, 1, 1, 0, 1})
	f.Add(uint8(1), []byte{0, 0, 0})
	f.Add(uint8(5), []byte{0, 4, 127, 4, 0, 128, 2, 2, 0, 1, 3, 7})
	f.Add(uint8(19), []byte{0, 0, 3, 0, 9, 5, 4, 17, 251, 12, 2, 6, 19, 7, 1, 8, 8, 2, 3, 14, 9})
	f.Fuzz(func(t *testing.T, nRaw uint8, data []byte) {
		n := 1 + int(nRaw)%24
		a, _ := fuzzCSRFrom(n, data)
		kl, ku := Bandwidths(a)
		const eps = 1
		ch := NewBandCholesky(n, kl+ku)
		if err := ch.loadNormal(a, eps); err != nil {
			t.Fatal(err)
		}
		ata := normalEquations(a, eps)
		checkLoadBits(t, ch, ata)
		if err := ch.factor(); err != nil {
			t.Fatalf("AᵀA + I did not factor: %v", err)
		}
		rhs := make([]float64, n)
		for i := range rhs {
			rhs[i] = float64(i + 1)
		}
		x := Copy(rhs)
		if err := ch.SolveInto(x); err != nil {
			t.Fatal(err)
		}
		// ‖AᵀA + I‖₂ ≤ ‖A‖²_F + 1 bounds both the matrix norm and, since
		// λmin ≥ 1, the condition number.
		kappa := 1.0
		for i := 0; i < n; i++ {
			_, vals := a.RowNNZ(i)
			for _, v := range vals {
				kappa += v * v
			}
		}
		r := make([]float64, n)
		ata.Residual(r, rhs, x)
		if tol := 1e-14 * float64(n*n) * (kappa*maxAbs(x) + maxAbs(rhs)); maxAbs(r) > tol {
			t.Fatalf("residual %g exceeds %g", maxAbs(r), tol)
		}
		lu, err := FactorBandLU(ata)
		if err != nil {
			t.Fatalf("band LU of AᵀA + I: %v", err)
		}
		xr := make([]float64, n)
		if err := lu.Solve(xr, rhs); err != nil {
			t.Fatal(err)
		}
		for i := range xr {
			xr[i] -= x[i]
		}
		if tol := 1e-14 * float64(n*n) * kappa * maxAbs(x); maxAbs(xr) > tol {
			t.Fatalf("Cholesky and LU solutions differ by %g, bound %g", maxAbs(xr), tol)
		}
		checkCholeskyRef(t, "fuzz", a, eps, rhs)
	})
}
