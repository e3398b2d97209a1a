package la

import (
	"errors"
	"math/rand"
	"testing"
)

func TestLUSolveKnownSystem(t *testing.T) {
	a := NewDenseFrom([][]float64{
		{2, 1, -1},
		{-3, -1, 2},
		{-2, 1, 2},
	})
	x, err := SolveDense(a, []float64{8, -11, -3})
	if err != nil {
		t.Fatal(err)
	}
	vecAlmostEq(t, x, []float64{2, 3, -1}, 1e-12)
}

func TestLUResidualRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(20)
		a := randomWellConditioned(rng, n)
		want := make([]float64, n)
		for i := range want {
			want[i] = rng.NormFloat64()
		}
		b := make([]float64, n)
		a.MulVec(b, want)
		x, err := SolveDense(a, b)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		vecAlmostEq(t, x, want, 1e-9)
	}
}

func TestLUSingularDetected(t *testing.T) {
	a := NewDenseFrom([][]float64{
		{1, 2},
		{2, 4},
	})
	_, err := FactorLU(a)
	if !errors.Is(err, ErrSingular) {
		t.Fatalf("expected ErrSingular, got %v", err)
	}
}

func TestLUPivotingHandlesZeroLeadingEntry(t *testing.T) {
	a := NewDenseFrom([][]float64{
		{0, 1},
		{1, 0},
	})
	x, err := SolveDense(a, []float64{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	vecAlmostEq(t, x, []float64{3, 2}, 1e-14)
}
