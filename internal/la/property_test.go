package la

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// Property-based tests (testing/quick) on the core data structures: the
// invariants other layers silently rely on.

func sanitize(x []float64, cap float64) {
	for i, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			x[i] = 0
		} else {
			x[i] = math.Mod(v, cap)
		}
	}
}

func TestPropertyCSRMatVecLinearity(t *testing.T) {
	// A·(x + αy) == A·x + α·A·y for any CSR built from random entries.
	rng := rand.New(rand.NewSource(90))
	f := func(vals [12]float64, x, y [6]float64, alphaRaw float64) bool {
		sanitize(vals[:], 1e6)
		sanitize(x[:], 1e6)
		sanitize(y[:], 1e6)
		alpha := math.Mod(alphaRaw, 100)
		if math.IsNaN(alpha) || math.IsInf(alpha, 0) {
			alpha = 1
		}
		bld := NewCOO(6, 6)
		for _, v := range vals {
			bld.Append(rng.Intn(6), rng.Intn(6), v)
		}
		a := bld.ToCSR()
		// z = x + α·y
		z := make([]float64, 6)
		for i := range z {
			z[i] = x[i] + alpha*y[i]
		}
		az := make([]float64, 6)
		ax := make([]float64, 6)
		ay := make([]float64, 6)
		a.MulVec(az, z)
		a.MulVec(ax, x[:])
		a.MulVec(ay, y[:])
		for i := range az {
			want := ax[i] + alpha*ay[i]
			tol := 1e-9 * (1 + math.Abs(az[i]) + math.Abs(want))
			if math.Abs(az[i]-want) > tol {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyLUSolveRoundTrip(t *testing.T) {
	// For any diagonally dominant matrix, x = A⁻¹(A·x).
	rng := rand.New(rand.NewSource(91))
	f := func(x [7]float64) bool {
		sanitize(x[:], 1e3)
		a := randomWellConditioned(rng, 7)
		b := make([]float64, 7)
		a.MulVec(b, x[:])
		got, err := SolveDense(a, b)
		if err != nil {
			return false
		}
		for i := range got {
			if math.Abs(got[i]-x[i]) > 1e-6*(1+math.Abs(x[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyBandEqualsDense(t *testing.T) {
	// Band LU and dense LU agree on any diagonally dominant banded system.
	rng := rand.New(rand.NewSource(92))
	f := func(rhs [10]float64) bool {
		sanitize(rhs[:], 1e3)
		n := 10
		bld := NewCOO(n, n)
		dn := NewDense(n, n)
		for i := 0; i < n; i++ {
			for j := max(0, i-2); j <= min(n-1, i+2); j++ {
				v := rng.NormFloat64()
				if i == j {
					v += 8
				}
				bld.Append(i, j, v)
				dn.Set(i, j, v)
			}
		}
		xb, _, err := SolveSparse(bld.ToCSR(), rhs[:])
		if err != nil {
			return false
		}
		xd, err := SolveDense(dn, rhs[:])
		if err != nil {
			return false
		}
		for i := range xb {
			if math.Abs(xb[i]-xd[i]) > 1e-8*(1+math.Abs(xd[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyTransposeAdjoint(t *testing.T) {
	// ⟨y, A·x⟩ == ⟨Aᵀ·y, x⟩ for arbitrary sparse A.
	rng := rand.New(rand.NewSource(93))
	f := func(x [5]float64, y [8]float64) bool {
		sanitize(x[:], 1e4)
		sanitize(y[:], 1e4)
		bld := NewCOO(8, 5)
		for k := 0; k < 14; k++ {
			bld.Append(rng.Intn(8), rng.Intn(5), rng.NormFloat64())
		}
		a := bld.ToCSR()
		ax := make([]float64, 8)
		a.MulVec(ax, x[:])
		aty := make([]float64, 5)
		a.MulTransVec(aty, y[:])
		l := Dot(y[:], ax)
		r := Dot(aty, x[:])
		return math.Abs(l-r) <= 1e-8*(1+math.Abs(l)+math.Abs(r))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertySubmatrixConsistency(t *testing.T) {
	// ExtractSubmatrix(idx) must equal the dense submatrix for any index
	// subset.
	rng := rand.New(rand.NewSource(95))
	f := func(pick [4]uint8) bool {
		n := 9
		bld := NewCOO(n, n)
		dn := NewDense(n, n)
		for k := 0; k < 30; k++ {
			i, j := rng.Intn(n), rng.Intn(n)
			v := rng.NormFloat64()
			bld.Append(i, j, v)
			dn.Add(i, j, v)
		}
		a := bld.ToCSR()
		seen := map[int]bool{}
		var idx []int
		for _, p := range pick {
			g := int(p) % n
			if !seen[g] {
				seen[g] = true
				idx = append(idx, g)
			}
		}
		if len(idx) == 0 {
			return true
		}
		sub := a.ExtractSubmatrix(idx)
		for r, gr := range idx {
			for c, gc := range idx {
				if math.Abs(sub.At(r, c)-dn.At(gr, gc)) > 1e-12 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
