package la

import (
	"math"
	"math/rand"
	"testing"
)

// laplacian1D builds the standard tridiagonal [−1, 2, −1] matrix, an SPD
// stencil matrix representative of the PDE Jacobians.
func laplacian1D(n int) *CSR {
	b := NewCOO(n, n)
	for i := 0; i < n; i++ {
		b.Append(i, i, 2)
		if i > 0 {
			b.Append(i, i-1, -1)
		}
		if i < n-1 {
			b.Append(i, i+1, -1)
		}
	}
	return b.ToCSR()
}

// laplacian2D builds the 5-point Poisson matrix on an nx×ny interior grid.
func laplacian2D(nx, ny int) *CSR {
	n := nx * ny
	b := NewCOO(n, n)
	id := func(i, j int) int { return i*ny + j }
	for i := 0; i < nx; i++ {
		for j := 0; j < ny; j++ {
			r := id(i, j)
			b.Append(r, r, 4)
			if i > 0 {
				b.Append(r, id(i-1, j), -1)
			}
			if i < nx-1 {
				b.Append(r, id(i+1, j), -1)
			}
			if j > 0 {
				b.Append(r, id(i, j-1), -1)
			}
			if j < ny-1 {
				b.Append(r, id(i, j+1), -1)
			}
		}
	}
	return b.ToCSR()
}

func randomVec(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

func TestCOODuplicatesSummed(t *testing.T) {
	b := NewCOO(2, 2)
	b.Append(0, 0, 1)
	b.Append(0, 0, 2)
	b.Append(1, 1, 5)
	m := b.ToCSR()
	if m.At(0, 0) != 3 {
		t.Fatalf("duplicate entries not summed: got %g", m.At(0, 0))
	}
	if m.NNZ() != 2 {
		t.Fatalf("NNZ = %d, want 2", m.NNZ())
	}
}

func TestCSRMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	b := NewCOO(6, 6)
	d := NewDense(6, 6)
	for k := 0; k < 18; k++ {
		i, j := rng.Intn(6), rng.Intn(6)
		v := rng.NormFloat64()
		b.Append(i, j, v)
		d.Add(i, j, v)
	}
	m := b.ToCSR()
	x := randomVec(rng, 6)
	got := make([]float64, 6)
	want := make([]float64, 6)
	m.MulVec(got, x)
	d.MulVec(want, x)
	vecAlmostEq(t, got, want, 1e-12)
	// ToDense round trip.
	dd := m.ToDense()
	for i := 0; i < 6; i++ {
		for j := 0; j < 6; j++ {
			if !almostEq(dd.At(i, j), d.At(i, j), 1e-14) {
				t.Fatalf("ToDense mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestCSRColumnsSortedInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	b := NewCOO(10, 10)
	for k := 0; k < 60; k++ {
		b.Append(rng.Intn(10), rng.Intn(10), rng.NormFloat64())
	}
	m := b.ToCSR()
	for i := 0; i < m.Rows(); i++ {
		cols, _ := m.RowNNZ(i)
		for k := 1; k < len(cols); k++ {
			if cols[k] <= cols[k-1] {
				t.Fatalf("row %d columns not strictly increasing: %v", i, cols)
			}
		}
	}
}

func TestCSRTransposeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	b := NewCOO(7, 5)
	for k := 0; k < 20; k++ {
		b.Append(rng.Intn(7), rng.Intn(5), rng.NormFloat64())
	}
	m := b.ToCSR()
	mt := m.Transpose()
	// (Aᵀ)ᵢⱼ = Aⱼᵢ and y·(A·x) = x·(Aᵀ·y).
	x := randomVec(rng, 5)
	y := randomVec(rng, 7)
	ax := make([]float64, 7)
	aty := make([]float64, 5)
	m.MulVec(ax, x)
	mt.MulVec(aty, y)
	if !almostEq(Dot(y, ax), Dot(x, aty), 1e-12) {
		t.Fatalf("adjoint identity failed: %g vs %g", Dot(y, ax), Dot(x, aty))
	}
}

func TestSetExisting(t *testing.T) {
	m := laplacian1D(4)
	m.SetExisting(1, 2, -9)
	if m.At(1, 2) != -9 {
		t.Fatal("SetExisting did not overwrite")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for entry outside pattern")
		}
	}()
	m.SetExisting(0, 3, 1)
}

func TestCGOnLaplacian(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a := laplacian2D(8, 8)
	want := randomVec(rng, 64)
	b := make([]float64, 64)
	a.MulVec(b, want)
	x := make([]float64, 64)
	st, err := CG(a, x, b, CGOptions{Tol: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	if !st.Converged {
		t.Fatal("CG did not converge")
	}
	vecAlmostEq(t, x, want, 1e-7)
}

func TestPCGConvergesFasterThanCG(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	// A badly scaled SPD system: diagonal scaling helps a lot here.
	n := 100
	bld := NewCOO(n, n)
	for i := 0; i < n; i++ {
		scale := math.Pow(10, float64(i%4))
		bld.Append(i, i, 2*scale)
		if i > 0 {
			bld.Append(i, i-1, -0.5)
			bld.Append(i-1, i, -0.5)
		}
	}
	a := bld.ToCSR()
	want := randomVec(rng, n)
	b := make([]float64, n)
	a.MulVec(b, want)

	xPlain := make([]float64, n)
	stPlain, err := CG(a, xPlain, b, CGOptions{Tol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	xPre := make([]float64, n)
	stPre, err := CG(a, xPre, b, CGOptions{Tol: 1e-10, M: NewJacobi(a)})
	if err != nil {
		t.Fatal(err)
	}
	if stPre.Iterations >= stPlain.Iterations {
		t.Fatalf("Jacobi PCG (%d iters) not faster than CG (%d iters)", stPre.Iterations, stPlain.Iterations)
	}
	vecAlmostEq(t, xPre, want, 1e-6)
}

func TestBiCGSTABOnNonsymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	// Advection-diffusion-like nonsymmetric stencil.
	n := 80
	bld := NewCOO(n, n)
	for i := 0; i < n; i++ {
		bld.Append(i, i, 3)
		if i > 0 {
			bld.Append(i, i-1, -1.5) // upwind bias makes it nonsymmetric
		}
		if i < n-1 {
			bld.Append(i, i+1, -0.5)
		}
	}
	a := bld.ToCSR()
	want := randomVec(rng, n)
	b := make([]float64, n)
	a.MulVec(b, want)
	x := make([]float64, n)
	st, err := BiCGSTAB(a, x, b, CGOptions{Tol: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	if !st.Converged {
		t.Fatal("BiCGSTAB did not converge")
	}
	vecAlmostEq(t, x, want, 1e-6)
}

func TestBiCGSTABWithILU0(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := laplacian2D(10, 10)
	want := randomVec(rng, 100)
	b := make([]float64, 100)
	a.MulVec(b, want)
	ilu, err := NewILU0(a)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 100)
	stPre, err := BiCGSTAB(a, x, b, CGOptions{Tol: 1e-12, M: ilu})
	if err != nil {
		t.Fatal(err)
	}
	vecAlmostEq(t, x, want, 1e-6)
	x2 := make([]float64, 100)
	stPlain, err := BiCGSTAB(a, x2, b, CGOptions{Tol: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	if stPre.Iterations >= stPlain.Iterations {
		t.Fatalf("ILU0 BiCGSTAB (%d) not faster than plain (%d)", stPre.Iterations, stPlain.Iterations)
	}
}

func TestSORGaussSeidel(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	a := laplacian1D(30)
	want := randomVec(rng, 30)
	b := make([]float64, 30)
	a.MulVec(b, want)
	x := make([]float64, 30)
	st, err := SOR(a, x, b, SOROptions{Omega: 1, Tol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	if !st.Converged {
		t.Fatal("Gauss-Seidel did not converge")
	}
	vecAlmostEq(t, x, want, 1e-5)
	// Over-relaxation should converge in fewer sweeps on this matrix.
	x2 := make([]float64, 30)
	st2, err := SOR(a, x2, b, SOROptions{Omega: 1.8, Tol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	if st2.Iterations >= st.Iterations {
		t.Fatalf("SOR ω=1.8 (%d sweeps) not faster than GS (%d sweeps)", st2.Iterations, st.Iterations)
	}
}

func TestIterativeZeroRHS(t *testing.T) {
	a := laplacian1D(5)
	x := []float64{1, 1, 1, 1, 1}
	if _, err := CG(a, x, make([]float64, 5), CGOptions{Tol: 1e-12}); err != nil {
		t.Fatal(err)
	}
	if Norm2(x) > 1e-6 {
		t.Fatalf("CG with zero RHS should drive x to 0, got ‖x‖ = %g", Norm2(x))
	}
}
