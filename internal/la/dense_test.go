package la

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b))
}

func vecAlmostEq(t *testing.T, got, want []float64, tol float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("length mismatch: got %d want %d", len(got), len(want))
	}
	for i := range got {
		if !almostEq(got[i], want[i], tol) {
			t.Fatalf("element %d: got %g want %g", i, got[i], want[i])
		}
	}
}

func randomDense(rng *rand.Rand, rows, cols int) *Dense {
	m := NewDense(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			m.Set(i, j, rng.NormFloat64())
		}
	}
	return m
}

// randomWellConditioned makes a diagonally dominant random matrix, which is
// guaranteed nonsingular.
func randomWellConditioned(rng *rand.Rand, n int) *Dense {
	m := randomDense(rng, n, n)
	for i := 0; i < n; i++ {
		rowSum := 0.0
		for j := 0; j < n; j++ {
			rowSum += math.Abs(m.At(i, j))
		}
		m.Set(i, i, rowSum+1)
	}
	return m
}

func TestDenseBasicOps(t *testing.T) {
	m := NewDenseFrom([][]float64{{1, 2}, {3, 4}})
	if m.At(0, 1) != 2 || m.At(1, 0) != 3 {
		t.Fatalf("At returned wrong values: %v", m)
	}
	m.Add(0, 0, 5)
	if m.At(0, 0) != 6 {
		t.Fatalf("Add failed: got %g", m.At(0, 0))
	}
	c := m.Clone()
	c.Set(0, 0, 99)
	if m.At(0, 0) == 99 {
		t.Fatal("Clone shares storage with original")
	}
}

func TestDenseMulVec(t *testing.T) {
	m := NewDenseFrom([][]float64{{1, 2, 3}, {4, 5, 6}})
	dst := make([]float64, 2)
	m.MulVec(dst, []float64{1, 1, 1})
	vecAlmostEq(t, dst, []float64{6, 15}, 1e-15)
}

func TestDenseMulIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := randomDense(rng, 5, 5)
	got := Mul(a, Identity(5))
	for i := 0; i < 5; i++ {
		for j := 0; j < 5; j++ {
			if got.At(i, j) != a.At(i, j) {
				t.Fatalf("A·I ≠ A at (%d,%d)", i, j)
			}
		}
	}
}

func TestTransposeInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := randomDense(rng, 4, 7)
	tt := a.Transpose().Transpose()
	for i := 0; i < 4; i++ {
		for j := 0; j < 7; j++ {
			if tt.At(i, j) != a.At(i, j) {
				t.Fatal("transpose twice is not the identity")
			}
		}
	}
}

func TestNorm2AgainstNaive(t *testing.T) {
	x := []float64{3, 4}
	if !almostEq(Norm2(x), 5, 1e-15) {
		t.Fatalf("Norm2([3,4]) = %g, want 5", Norm2(x))
	}
	// Large values must not overflow.
	big := []float64{1e200, 1e200}
	if math.IsInf(Norm2(big), 0) {
		t.Fatal("Norm2 overflowed on large inputs")
	}
}

func TestDotSymmetryProperty(t *testing.T) {
	f := func(a, b [8]float64) bool {
		// Keep products finite: overflow to ±Inf makes the sum
		// order-dependent, which is not the property under test.
		for i := range a {
			a[i] = math.Mod(a[i], 1e100)
			b[i] = math.Mod(b[i], 1e100)
			if math.IsNaN(a[i]) {
				a[i] = 0
			}
			if math.IsNaN(b[i]) {
				b[i] = 0
			}
		}
		return Dot(a[:], b[:]) == Dot(b[:], a[:])
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNorm2NonNegativeProperty(t *testing.T) {
	f := func(a [12]float64) bool {
		for i, v := range a {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				a[i] = 0
			}
		}
		return Norm2(a[:]) >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTriangleInequalityProperty(t *testing.T) {
	f := func(a, b [6]float64) bool {
		for i := range a {
			if math.IsNaN(a[i]) || math.IsInf(a[i], 0) {
				a[i] = 1
			}
			if math.IsNaN(b[i]) || math.IsInf(b[i], 0) {
				b[i] = 1
			}
			// Keep magnitudes sane so the inequality is testable in floats.
			a[i] = math.Mod(a[i], 1e6)
			b[i] = math.Mod(b[i], 1e6)
		}
		sum := make([]float64, 6)
		for i := range sum {
			sum[i] = a[i] + b[i]
		}
		return Norm2(sum) <= Norm2(a[:])+Norm2(b[:])+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAxpy(t *testing.T) {
	y := []float64{1, 2, 3}
	Axpy(2, []float64{1, 1, 1}, y)
	vecAlmostEq(t, y, []float64{3, 4, 5}, 1e-15)
}

func TestSubFill(t *testing.T) {
	dst := make([]float64, 3)
	Sub(dst, []float64{5, 5, 5}, []float64{1, 2, 3})
	vecAlmostEq(t, dst, []float64{4, 3, 2}, 1e-15)
	Fill(dst, 7)
	vecAlmostEq(t, dst, []float64{7, 7, 7}, 1e-15)
}

func TestDensePanicsOnBadDims(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on dimension mismatch")
		}
	}()
	m := NewDense(2, 2)
	m.MulVec(make([]float64, 3), make([]float64, 2))
}
