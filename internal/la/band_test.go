package la

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"hybridpde/internal/par"
)

// fullSpanFactor is the textbook banded elimination the reach bound
// replaced: every pivot step swaps and updates all columns
// k…min(k+ku+kl, n−1), the never-filled fill region included. f must hold
// a loaded, unfactored matrix.
func fullSpanFactor(f *BandLU) error {
	n, kl, ku, w := f.n, f.kl, f.ku, f.w
	data := f.data
	var ops int64
	for k := 0; k < n; k++ {
		iHi := min(k+kl, n-1)
		iMax, vMax := k, math.Abs(data[k*w+kl])
		for i := k + 1; i <= iHi; i++ {
			if v := math.Abs(data[i*w+k-i+kl]); v > vMax {
				iMax, vMax = i, v
			}
		}
		if vMax == 0 {
			return ErrSingular
		}
		f.piv[k] = iMax
		span := min(k+ku+kl, n-1) - k + 1
		rowK := data[k*w+kl : k*w+kl+span]
		if iMax != k {
			rowM := data[iMax*w+k-iMax+kl : iMax*w+k-iMax+kl+span]
			for t := range rowK {
				rowK[t], rowM[t] = rowM[t], rowK[t]
			}
		}
		for i := k + 1; i <= iHi; i++ {
			base := i*w + k - i + kl
			m := data[base] / rowK[0]
			data[base] = m
			if m == 0 {
				continue
			}
			for t := 1; t < span; t++ {
				data[base+t] -= float64(m * rowK[t])
			}
			ops += int64(span - 1)
		}
	}
	f.FactorOps = ops
	return nil
}

// fullSpanSolve is Solve with every row's back substitution summed over
// the full band, columns i…i+ku+kl.
func fullSpanSolve(f *BandLU, dst, b []float64) error {
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
		for i := k + 1; i <= min(k+kl, n-1); i++ {
			x[i] -= float64(data[i*w+k-i+kl] * xk)
		}
	}
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for j := i + 1; j <= min(i+ku+kl, n-1); j++ {
			s -= float64(data[i*w+j-i+kl] * x[j])
		}
		if data[i*w+kl] == 0 {
			return ErrSingular
		}
		x[i] = s / data[i*w+kl]
	}
	return nil
}

// compareFullSpan factors ref with the full-span oracle and checks that got,
// factored from the same load by the package, agrees: same error, pivots
// and FactorOps, factors equal in value (and in bits when noNegZero; a
// loaded −0 past the reach is one the oracle turns into +0 when m < 0) and
// Solve bit-identical on b. It returns the oracle's row interchanges, or
// −1 if the matrix is singular.
func compareFullSpan(t *testing.T, name string, got, ref *BandLU, gotErr error, b []float64, noNegZero bool) int {
	t.Helper()
	refErr := fullSpanFactor(ref)
	if !errors.Is(gotErr, refErr) {
		t.Fatalf("%s: factor error %v, full span %v", name, gotErr, refErr)
	}
	if refErr != nil {
		return -1
	}
	if got.FactorOps != ref.FactorOps {
		t.Fatalf("%s: FactorOps %d, full span %d", name, got.FactorOps, ref.FactorOps)
	}
	swaps := 0
	for k, p := range ref.piv {
		if got.piv[k] != p {
			t.Fatalf("%s: piv[%d] = %d, full span %d", name, k, got.piv[k], p)
		}
		if p != k {
			swaps++
		}
	}
	for q, v := range ref.data {
		if g := got.data[q]; g != v || (noNegZero && math.Float64bits(g) != math.Float64bits(v)) {
			t.Fatalf("%s: factor storage [%d] = %x, full span %x", name, q, math.Float64bits(g), math.Float64bits(v))
		}
	}
	x, xr := make([]float64, len(b)), make([]float64, len(b))
	gotErr, refErr = got.Solve(x, b), fullSpanSolve(ref, xr, b)
	if !errors.Is(gotErr, refErr) {
		t.Fatalf("%s: solve error %v, full span %v", name, gotErr, refErr)
	}
	for i := range x {
		if math.Float64bits(x[i]) != math.Float64bits(xr[i]) {
			t.Fatalf("%s: x[%d] = %x, full span %x", name, i, math.Float64bits(x[i]), math.Float64bits(xr[i]))
		}
	}
	return swaps
}

// swapBanded builds an n×n matrix with bandwidths (kl, ku) whose diagonal
// is small against the entries below it, so partial pivoting interchanges
// rows and fill spreads into the extra kl columns. With zeros set, about a
// quarter of the off-diagonal entries are an explicit 0 or −0.
func swapBanded(rng *rand.Rand, n, kl, ku int, zeros bool) *CSR {
	b := NewCOO(n, n)
	for i := 0; i < n; i++ {
		for j := max(0, i-kl); j <= min(n-1, i+ku); j++ {
			v := rng.NormFloat64()
			switch r := rng.Intn(8); {
			case i == j:
				v *= 0.05
			case zeros && r == 0:
				v = 0
			case zeros && r == 1:
				v = math.Copysign(0, -1)
			}
			b.Append(i, j, v)
		}
	}
	return b.ToCSR()
}

// TestBandLUReachMatchesFullSpan pins the reach bound against the
// full-span oracle: on matrices that interchange rows, with explicit ±0
// entries, lopsided and degenerate bandwidths, both loaders and pools of
// 1–3 workers, the pivots, FactorOps and Solve bits are the oracle's.
func TestBandLUReachMatchesFullSpan(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	pools := []*par.Pool{nil, par.NewPool(1), par.NewPool(2), par.NewPool(3)}
	defer func() {
		for _, p := range pools[1:] {
			p.Close()
		}
	}()
	shapes := [][3]int{
		{1, 0, 0}, {7, 0, 0}, {9, 0, 3}, {9, 3, 0}, {12, 1, 2}, {20, 5, 2},
		{20, 2, 7}, {33, 6, 6},
		// rows·span ≥ bandParGrain, so pools of 2 and 3 fan out.
		{200, 120, 60},
	}
	for _, sh := range shapes {
		n, kl, ku := sh[0], sh[1], sh[2]
		for _, zeros := range []bool{false, true} {
			a := swapBanded(rng, n, kl, ku, zeros)
			b := randomVec(rng, n)
			for procs, p := range pools {
				name := fmt.Sprintf("n=%d kl=%d ku=%d zeros=%v pool=%d", n, kl, ku, zeros, procs)
				got, ref := NewBandLUWorkspace(n, kl, ku), NewBandLUWorkspace(n, kl, ku)
				got.SetPool(p)
				if err := ref.load(a); err != nil {
					t.Fatal(err)
				}
				swaps := compareFullSpan(t, name+" FactorFrom", got, ref, got.FactorFrom(a), b, !zeros)
				if kl > 0 && n > 8 && swaps <= 0 {
					t.Fatalf("%s: %d row interchanges, so the fill region went untested", name, swaps)
				}

				// AᵀA has bandwidth kl+ku on both sides.
				const eps = 1e-3
				got, ref = NewBandLUWorkspace(n, kl+ku, kl+ku), NewBandLUWorkspace(n, kl+ku, kl+ku)
				got.SetPool(p)
				if err := ref.loadNormal(a, eps); err != nil {
					t.Fatal(err)
				}
				compareFullSpan(t, name+" FactorNormalFrom", got, ref, got.FactorNormalFrom(a, eps), b, true)
			}
		}
	}
}

func TestBandwidths(t *testing.T) {
	a := laplacian1D(6)
	kl, ku := Bandwidths(a)
	if kl != 1 || ku != 1 {
		t.Fatalf("bandwidths = (%d,%d), want (1,1)", kl, ku)
	}
	b := laplacian2D(4, 4)
	kl, ku = Bandwidths(b)
	if kl != 4 || ku != 4 {
		t.Fatalf("2-D bandwidths = (%d,%d), want (4,4)", kl, ku)
	}
}

func TestBandLUTridiagonal(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	a := laplacian1D(40)
	want := randomVec(rng, 40)
	b := make([]float64, 40)
	a.MulVec(b, want)
	x, _, err := SolveSparse(a, b)
	if err != nil {
		t.Fatal(err)
	}
	vecAlmostEq(t, x, want, 1e-10)
}

func TestBandLUMatchesDenseLU(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 20; trial++ {
		n := 3 + rng.Intn(25)
		kl := 1 + rng.Intn(3)
		ku := 1 + rng.Intn(3)
		bld := NewCOO(n, n)
		dn := NewDense(n, n)
		for i := 0; i < n; i++ {
			for j := max(0, i-kl); j <= min(n-1, i+ku); j++ {
				v := rng.NormFloat64()
				if i == j {
					v += float64(kl+ku) + 2 // diagonally dominant
				}
				bld.Append(i, j, v)
				dn.Set(i, j, v)
			}
		}
		a := bld.ToCSR()
		rhs := randomVec(rng, n)
		xBand, _, err := SolveSparse(a, rhs)
		if err != nil {
			t.Fatalf("trial %d band: %v", trial, err)
		}
		xDense, err := SolveDense(dn, rhs)
		if err != nil {
			t.Fatalf("trial %d dense: %v", trial, err)
		}
		vecAlmostEq(t, xBand, xDense, 1e-9)
	}
}

func TestBandLUNeedsPivoting(t *testing.T) {
	// Zero on the diagonal forces a row interchange.
	bld := NewCOO(3, 3)
	bld.Append(0, 0, 0)
	bld.Append(0, 1, 1)
	bld.Append(1, 0, 1)
	bld.Append(1, 1, 1)
	bld.Append(1, 2, 1)
	bld.Append(2, 1, 1)
	bld.Append(2, 2, 2)
	a := bld.ToCSR()
	want := []float64{1, 2, 3}
	b := make([]float64, 3)
	a.MulVec(b, want)
	x, _, err := SolveSparse(a, b)
	if err != nil {
		t.Fatal(err)
	}
	vecAlmostEq(t, x, want, 1e-12)
}

func TestBandLUSingular(t *testing.T) {
	bld := NewCOO(2, 2)
	bld.Append(0, 0, 1)
	bld.Append(0, 1, 2)
	bld.Append(1, 0, 2)
	bld.Append(1, 1, 4)
	_, _, err := SolveSparse(bld.ToCSR(), []float64{1, 2})
	if !errors.Is(err, ErrSingular) {
		t.Fatalf("expected ErrSingular, got %v", err)
	}
}

func TestBandLUPoisson2D(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	a := laplacian2D(12, 12)
	want := randomVec(rng, 144)
	b := make([]float64, 144)
	a.MulVec(b, want)
	x, f, err := SolveSparse(a, b)
	if err != nil {
		t.Fatal(err)
	}
	vecAlmostEq(t, x, want, 1e-9)
	if f.FactorOps <= 0 {
		t.Fatal("FactorOps should count elimination work")
	}
}

func TestFactorNormalFromMatchesDense(t *testing.T) {
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
		ws := NewBandLUWorkspace(n, 3, 3)
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

func TestFactorNormalFromSingularMatrix(t *testing.T) {
	// An exactly singular matrix: the shifted normal equations still
	// factor and the solve direction vanishes along the null space input.
	bld := NewCOO(2, 2)
	bld.Append(0, 0, 1)
	bld.Append(0, 1, 1)
	bld.Append(1, 0, 1)
	bld.Append(1, 1, 1)
	a := bld.ToCSR()
	ws := NewBandLUWorkspace(2, 2, 2)
	if err := ws.FactorNormalFrom(a, 1e-3); err != nil {
		t.Fatalf("shifted normal equations must factor a singular matrix: %v", err)
	}
}

func TestBandWorkspaceReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	a1 := laplacian1D(10)
	ws := NewBandLUWorkspace(10, 1, 1)
	if err := ws.FactorFrom(a1); err != nil {
		t.Fatal(err)
	}
	want := randomVec(rng, 10)
	b := make([]float64, 10)
	a1.MulVec(b, want)
	x := make([]float64, 10)
	if err := ws.Solve(x, b); err != nil {
		t.Fatal(err)
	}
	vecAlmostEq(t, x, want, 1e-10)
	// Refactor different values in the same workspace.
	a2 := a1.Clone()
	a2.Scale(2)
	if err := ws.FactorFrom(a2); err != nil {
		t.Fatal(err)
	}
	a2.MulVec(b, want)
	if err := ws.Solve(x, b); err != nil {
		t.Fatal(err)
	}
	vecAlmostEq(t, x, want, 1e-10)
}
