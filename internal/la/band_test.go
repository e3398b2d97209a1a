package la

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// fullSpanFactor is the textbook banded elimination the reach bound
// replaced: every pivot step swaps and updates all columns
// k…min(k+ku+kl, n−1), the never-filled fill region included. f must hold
// a loaded, unfactored matrix.
func fullSpanFactor(f *rowMajorLU) error {
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
func fullSpanSolve(f *rowMajorLU, dst, b []float64) error {
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
// factored from the same matrix by the package, agrees: same error, pivots
// and FactorOps, factors equal in value (and in bits when noNegZero; a
// loaded −0 past the reach is one the oracle turns into +0 when m < 0) and
// Solve bit-identical on b. It returns the oracle's row interchanges, or
// −1 if the matrix is singular.
func compareFullSpan(t *testing.T, name string, got *BandLU, ref *rowMajorLU, gotErr error, b []float64, noNegZero bool) int {
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
	n, kl, ku := ref.n, ref.kl, ref.ku
	for i := 0; i < n; i++ {
		for j := max(0, i-kl); j <= min(n-1, i+ku+kl); j++ {
			g, v := BandLUEntry(got, i, j), ref.at(i, j)
			if g != v || (noNegZero && math.Float64bits(g) != math.Float64bits(v)) {
				t.Fatalf("%s: factor entry (%d,%d) = %x, full span %x", name, i, j, math.Float64bits(g), math.Float64bits(v))
			}
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
// full-span oracle, and the column-major panel factor against the
// row-major reference: on matrices that interchange rows, with explicit ±0
// entries, lopsided and degenerate bandwidths (kl < 3 and kl = 0 take the
// one-step path, n·kl near the panel width the ragged bottom), each matrix
// A and its assembled normal equations AᵀA + εI, the pivots, FactorOps,
// factor entries and Solve bits are the oracle's and the reference's.
func TestBandLUReachMatchesFullSpan(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	shapes := [][3]int{
		{1, 0, 0}, {7, 0, 0}, {9, 0, 3}, {9, 3, 0}, {12, 1, 2}, {20, 5, 2},
		{20, 2, 7}, {33, 6, 6}, {5, 4, 4}, {6, 3, 1}, {11, 3, 3},
		{200, 120, 60},
	}
	for _, sh := range shapes {
		n, kl, ku := sh[0], sh[1], sh[2]
		for _, zeros := range []bool{false, true} {
			a := swapBanded(rng, n, kl, ku, zeros)
			b := randomVec(rng, n)
			name := fmt.Sprintf("n=%d kl=%d ku=%d zeros=%v", n, kl, ku, zeros)
			got, ref := NewBandLUWorkspace(n, kl, ku), newRowMajorLU(n, kl, ku)
			if err := ref.load(a); err != nil {
				t.Fatal(err)
			}
			err := got.FactorFrom(a)
			swaps := compareFullSpan(t, name+" FactorFrom", got, ref, err, b, !zeros)
			if kl > 0 && n > 8 && swaps <= 0 {
				t.Fatalf("%s: %d row interchanges, so the fill region went untested", name, swaps)
			}
			compareRowMajor(t, name+" FactorFrom", got, err, a, b)

			// AᵀA + εI, assembled, has bandwidth kl+ku on both sides.
			ata := normalEquations(a, 1e-3)
			got, ref = NewBandLUWorkspace(n, kl+ku, kl+ku), newRowMajorLU(n, kl+ku, kl+ku)
			if err := ref.load(ata); err != nil {
				t.Fatal(err)
			}
			err = got.FactorFrom(ata)
			compareFullSpan(t, name+" FactorFrom(AᵀA+εI)", got, ref, err, b, true)
			compareRowMajor(t, name+" FactorFrom(AᵀA+εI)", got, err, ata, b)
		}
	}
}

// TestBandLUReuseMatchesRowMajor factors a sequence of same-shaped
// matrices in one workspace, alternating ones that interchange rows (and
// so write the fill rows) with diagonally dominant ones that do not, and
// holds every factor to the row-major reference, fill rows included: a
// factor after an interchange, or after one that stopped at a singular
// pivot, must clear what those left there.
func TestBandLUReuseMatchesRowMajor(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	const n, kl, ku = 40, 6, 5
	var f BandLU
	for trial := 0; trial < 8; trial++ {
		a := swapBanded(rng, n, kl, ku, trial%4 == 1)
		if trial%2 == 0 {
			coo := NewCOO(n, n)
			for i := 0; i < n; i++ {
				for j := max(0, i-kl); j <= min(n-1, i+ku); j++ {
					v := rng.NormFloat64()
					if i == j {
						v += 20
					}
					coo.Append(i, j, v)
				}
			}
			a = coo.ToCSR()
		}
		if trial == 5 {
			// Column 20 all zero: the factor stops at step 20 with
			// ErrSingular, leaving the columns right of its reach uncleared.
			a = swapBanded(rng, n, kl, ku, false)
			for i := 0; i < n; i++ {
				if s := a.Slot(i, 20); s >= 0 {
					a.SetSlotValue(s, 0)
				}
			}
		}
		err := FactorBandLUInto(&f, a, kl, ku)
		swaps := compareRowMajor(t, fmt.Sprintf("trial %d", trial), &f, err, a, randomVec(rng, n))
		switch {
		case trial == 5:
			if !errors.Is(err, ErrSingular) {
				t.Fatalf("trial 5: %v, want ErrSingular", err)
			}
		case (trial%2 == 0) != (swaps == 0):
			t.Fatalf("trial %d: %d interchanges", trial, swaps)
		}
	}
}

// TestBandLUOutOfBand checks that a matrix wider than the workspace's
// band is refused before any elimination, naming the first entry outside
// it in row order, as the row-major reference's load does.
func TestBandLUOutOfBand(t *testing.T) {
	for _, e := range [][2]int{{5, 0}, {0, 3}, {2, 5}} {
		coo := NewCOO(8, 8)
		for i := 0; i < 8; i++ {
			coo.Append(i, i, 2)
		}
		coo.Append(e[0], e[1], 1)
		coo.Append(7, 0, 1)
		a := coo.ToCSR()
		err := NewBandLUWorkspace(8, 1, 1).FactorFrom(a)
		want := newRowMajorLU(8, 1, 1).load(a)
		if err == nil || want == nil || err.Error() != want.Error() {
			t.Fatalf("entry (%d,%d): error %v, row-major %v", e[0], e[1], err, want)
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
