package la_test

import (
	"math"
	"math/rand"
	"testing"

	"hybridpde/internal/la"
	"hybridpde/internal/par"
)

// randBanded builds a random diagonally dominant banded matrix; dominance
// keeps LU well-posed so bit-comparisons test determinism, not luck.
func randBanded(rng *rand.Rand, n, kl, ku int) *la.CSR {
	b := la.NewCOO(n, n)
	for i := 0; i < n; i++ {
		sum := 0.0
		for j := i - kl; j <= i+ku; j++ {
			if j < 0 || j >= n || j == i {
				continue
			}
			v := rng.NormFloat64()
			sum += math.Abs(v)
			b.Append(i, j, v)
		}
		b.Append(i, i, sum+1+rng.Float64())
	}
	return b.ToCSR()
}

func TestFactorBandLUIntoMatchesFactorBandLU(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 5, 40, 200} {
		for _, kb := range [][2]int{{0, 0}, {1, 2}, {5, 5}, {9, 3}} {
			kl, ku := kb[0], kb[1]
			if kl >= n || ku >= n {
				continue
			}
			a := randBanded(rng, n, kl, ku)
			want, err := la.FactorBandLU(a)
			if err != nil {
				t.Fatalf("n=%d kl=%d ku=%d: FactorBandLU: %v", n, kl, ku, err)
			}
			var f la.BandLU
			if err := la.FactorBandLUInto(&f, a, kl, ku); err != nil {
				t.Fatalf("n=%d kl=%d ku=%d: FactorBandLUInto: %v", n, kl, ku, err)
			}
			if f.FactorOps != want.FactorOps {
				t.Fatalf("n=%d kl=%d ku=%d: FactorOps %d vs %d", n, kl, ku, f.FactorOps, want.FactorOps)
			}
			b := make([]float64, n)
			for i := range b {
				b[i] = rng.NormFloat64()
			}
			x1 := make([]float64, n)
			x2 := make([]float64, n)
			if err := want.Solve(x1, b); err != nil {
				t.Fatal(err)
			}
			if err := f.Solve(x2, b); err != nil {
				t.Fatal(err)
			}
			for i := range x1 {
				if x1[i] != x2[i] {
					t.Fatalf("n=%d kl=%d ku=%d: x[%d] = %x vs %x", n, kl, ku, i, x2[i], x1[i])
				}
			}
		}
	}
}

func TestFactorBandLUIntoReusesStorageAcrossShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	var f la.BandLU
	big := randBanded(rng, 120, 6, 6)
	if err := la.FactorBandLUInto(&f, big, 6, 6); err != nil {
		t.Fatal(err)
	}
	// A narrower matrix must reshape, not grow; repeated same-shape factors
	// must be alloc-free.
	small := randBanded(rng, 80, 3, 3)
	if err := la.FactorBandLUInto(&f, small, 3, 3); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if err := la.FactorBandLUInto(&f, small, 3, 3); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm FactorBandLUInto allocates %v per call, want 0", allocs)
	}
}

// TestBandLUParallelBitIdentical is the band-LU determinism contract: the
// factorization (solutions and FactorOps alike) must produce identical bits
// at every pool size, including against the no-pool serial path.
func TestBandLUParallelBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, sz := range [][3]int{{60, 4, 4}, {128, 17, 17}, {200, 33, 12}} {
		n, kl, ku := sz[0], sz[1], sz[2]
		a := randBanded(rng, n, kl, ku)
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		serial, err := la.FactorBandLU(a)
		if err != nil {
			t.Fatal(err)
		}
		xWant := make([]float64, n)
		if err := serial.Solve(xWant, b); err != nil {
			t.Fatal(err)
		}
		for _, procs := range []int{1, 2, 3, 8} {
			p := par.NewPool(procs)
			var f la.BandLU
			f.SetPool(p)
			if err := la.FactorBandLUInto(&f, a, kl, ku); err != nil {
				t.Fatalf("procs=%d: %v", procs, err)
			}
			if f.FactorOps != serial.FactorOps {
				t.Fatalf("n=%d procs=%d: FactorOps %d vs serial %d", n, procs, f.FactorOps, serial.FactorOps)
			}
			x := make([]float64, n)
			if err := f.Solve(x, b); err != nil {
				t.Fatalf("procs=%d: %v", procs, err)
			}
			for i := range x {
				if x[i] != xWant[i] {
					t.Fatalf("n=%d procs=%d: x[%d] = %x, serial %x", n, procs, i, x[i], xWant[i])
				}
			}
			p.Close()
		}
	}
}

func TestToCSRScratchReuseAndSortFastPath(t *testing.T) {
	// Unsorted duplicate-heavy input must still dedup correctly through the
	// fast-path check.
	c := la.NewCOO(3, 3)
	c.Append(1, 2, 1)
	c.Append(1, 0, 2)
	c.Append(1, 2, 3) // duplicate of (1,2)
	c.Append(0, 0, 5)
	c.Append(2, 2, 7)
	m := c.ToCSR()
	if got := m.At(1, 2); got != 4 {
		t.Fatalf("dedup sum At(1,2) = %v, want 4", got)
	}
	if got := m.NNZ(); got != 4 {
		t.Fatalf("NNZ = %d, want 4", got)
	}
	// Sorted input exercises the clean early-return; values must survive.
	c2 := la.NewCOO(2, 2)
	c2.Append(0, 0, 1)
	c2.Append(0, 1, 2)
	c2.Append(1, 1, 3)
	m2 := c2.ToCSR()
	if m2.At(0, 1) != 2 || m2.At(1, 1) != 3 || m2.NNZ() != 3 {
		t.Fatalf("clean path corrupted matrix: %v %v nnz=%d", m2.At(0, 1), m2.At(1, 1), m2.NNZ())
	}
	// Converting the same builder repeatedly (the next-scratch reuse path)
	// must produce independent, correct matrices each time.
	builder := la.NewCOO(4, 4)
	builder.Append(2, 1, 9)
	builder.Append(0, 3, 4)
	first := builder.ToCSR()
	builder.Append(1, 1, 6)
	second := builder.ToCSR()
	if first.NNZ() != 2 || first.At(2, 1) != 9 || first.At(0, 3) != 4 {
		t.Fatalf("first conversion wrong: nnz=%d", first.NNZ())
	}
	if second.NNZ() != 3 || second.At(1, 1) != 6 || second.At(2, 1) != 9 {
		t.Fatalf("second conversion wrong: nnz=%d", second.NNZ())
	}
}

func TestZeroRowsValues(t *testing.T) {
	c := la.NewCOO(4, 4)
	for i := 0; i < 4; i++ {
		c.Append(i, i, float64(i+1))
	}
	m := c.ToCSR()
	m.ZeroRowsValues(1, 3)
	wants := []float64{1, 0, 0, 4}
	for i, w := range wants {
		if got := m.At(i, i); got != w {
			t.Fatalf("At(%d,%d) = %v, want %v", i, i, got, w)
		}
	}
}
