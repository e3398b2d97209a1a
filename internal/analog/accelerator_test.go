package analog

import (
	"errors"
	"math"
	"testing"

	"hybridpde/internal/la"
	"hybridpde/internal/nonlin"
)

// smallSystem is a test system given by closures: F, and J written
// row-major into an n×n slice and served in full CSR storage.
type smallSystem struct {
	n int
	f func(u, f []float64)
	j func(u, jac []float64)
}

func (s smallSystem) Dim() int { return s.n }

func (s smallSystem) Eval(u, f []float64) error {
	s.f(u, f)
	return nil
}

func (s smallSystem) JacobianCSR(u []float64) (*la.CSR, error) {
	jac := make([]float64, s.n*s.n)
	s.j(u, jac)
	b := la.NewCOO(s.n, s.n)
	for k, v := range jac {
		b.Append(k/s.n, k%s.n, v)
	}
	return b.ToCSR(), nil
}

// cubic returns z³ − 1 = 0 as a 2-D real system, degree 3.
func cubic() PolySystem {
	return PolySystem{
		Degree: 3,
		SparseSystem: smallSystem{
			n: 2,
			f: func(u, f []float64) {
				re, im := u[0], u[1]
				f[0] = re*re*re - 3*re*im*im - 1
				f[1] = 3*re*re*im - im*im*im
			},
			j: func(u, jac []float64) {
				re, im := u[0], u[1]
				a := 3 * (re*re - im*im)
				b := 6 * re * im
				copy(jac, []float64{a, -b, b, a})
			},
		},
	}
}

// quadPair is Equation 2 with the given right-hand sides (degree 2).
func quadPair(r0, r1 float64) smallSystem {
	return smallSystem{
		n: 2,
		f: func(u, f []float64) {
			f[0] = u[0]*u[0] + u[0] + u[1] - r0
			f[1] = u[1]*u[1] + u[1] - u[0] - r1
		},
		j: func(u, jac []float64) {
			copy(jac, []float64{2*u[0] + 1, 1, -1, 2*u[1] + 1})
		},
	}
}

func TestSolveCubicNoiseless(t *testing.T) {
	acc := NewPrototype(1)
	sol, err := acc.SolveSparse(nil, cubic(), []float64{1.8, 0.3}, SolveOptions{DynamicRange: 2, DisableNoise: true})
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Converged {
		t.Fatal("noiseless chip should settle")
	}
	if math.Hypot(sol.U[0]-1, sol.U[1]) > 1e-2 {
		t.Fatalf("noiseless solution %v, want ≈ (1, 0)", sol.U)
	}
	if sol.SettleTau <= 0 || sol.SettleSeconds != sol.SettleTau*TimeConstantSeconds {
		t.Fatalf("settle bookkeeping wrong: %+v", sol)
	}
}

func TestSolveCubicWithHardwareNoise(t *testing.T) {
	acc := NewPrototype(2)
	sol, err := acc.SolveSparse(nil, cubic(), []float64{1.8, 0.3}, SolveOptions{DynamicRange: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Converged {
		t.Fatal("chip should settle")
	}
	errDist := math.Hypot(sol.U[0]-1, sol.U[1])
	if errDist > 0.35 {
		t.Fatalf("noisy solution too far from root: %v (dist %.3f)", sol.U, errDist)
	}
	if errDist == 0 {
		t.Fatal("hardware noise should perturb the solution at least by ADC quantisation")
	}
}

func TestSolveErrorIsApproximatelyPaperRMS(t *testing.T) {
	// Mini version of Figure 6: random quadratic pairs, constants within
	// ±3, RMS error between analog and exact digital solutions in
	// normalised units should land near the measured 5.38 %.
	const trials = 60
	acc := NewPrototype(3)
	sumSq, count := 0.0, 0
	for k := 0; k < trials; k++ {
		// Plant a root inside the dynamic range and derive the RHS from
		// it, so every trial has a guaranteed real solution.
		p0 := -1 + 2*float64(k%10)/9
		p1 := -1 + 2*float64(k/10)/5
		r0 := p0*p0 + p0 + p1
		r1 := p1*p1 + p1 - p0
		sys := quadPair(r0, r1)
		root := []float64{p0, p1}
		sol, err := acc.SolveSparse(nil, sys, root, SolveOptions{DynamicRange: 3})
		if err != nil || !sol.Converged {
			continue
		}
		// The digital reference is the exact root nearest the analog
		// result; polish from the analog answer.
		dig, err := new(nonlin.SparseSolver).Solve(nil, sys, sol.U, nonlin.NewtonOptions{Tol: 1e-12, AutoDamp: true, MaxIter: 400})
		if err != nil {
			continue
		}
		for i := range sol.U {
			d := (sol.U[i] - dig.U[i]) / 3 // normalised to dynamic range
			sumSq += d * d
			count++
		}
	}
	if count < 3*trials/2 {
		t.Fatalf("too few successful trials: %d of %d components", count, 2*trials)
	}
	rms := 100 * math.Sqrt(sumSq/float64(count))
	if rms < 1.0 || rms > 10.0 {
		t.Fatalf("analog RMS error %.2f%%, want in [1,10] bracketing the paper's 5.38%%", rms)
	}
}

func TestSolveRejectsTranscendental(t *testing.T) {
	sys := PolySystem{
		Degree: -1,
		SparseSystem: smallSystem{
			n: 1,
			f: func(u, f []float64) { f[0] = math.Exp(u[0]) - 2 },
		},
	}
	acc := NewPrototype(4)
	_, err := acc.SolveSparse(nil, sys, []float64{0}, SolveOptions{})
	if !errors.Is(err, ErrTranscendental) {
		t.Fatalf("expected ErrTranscendental, got %v", err)
	}
}

func TestSolveCapacityExceeded(t *testing.T) {
	big := &tridiagonalQuadratic{n: 9}
	acc := NewPrototype(5)
	_, err := acc.SolveSparse(nil, big, make([]float64, 9), SolveOptions{})
	if !errors.Is(err, ErrInsufficientHardware) {
		t.Fatalf("expected ErrInsufficientHardware, got %v", err)
	}
}

func TestHomotopyOnChipAllStartsLand(t *testing.T) {
	// Figure 3 far right: every (±1, ±1) start of the simple system must
	// end on a genuine root of the hard system.
	hard := quadPair(1, -1)
	simple := nonlin.SquareRootsSimple(2)
	acc := NewPrototype(6)
	f := make([]float64, 2)
	for _, s := range [][]float64{{1, 1}, {1, -1}, {-1, 1}, {-1, -1}} {
		sol, err := acc.SolveHomotopy(simple, hard, s, HomotopyOptions{
			Solve: SolveOptions{DynamicRange: 3, DisableNoise: true, TMaxTau: 600},
		})
		if err != nil {
			t.Fatalf("start %v: %v", s, err)
		}
		if !sol.Converged {
			t.Fatalf("start %v: chip homotopy did not settle", s)
		}
		if err := hard.Eval(sol.U, f); err != nil {
			t.Fatal(err)
		}
		if la.Norm2(f) > 5e-2 {
			t.Fatalf("start %v: endpoint %v is not a root (‖F‖=%.3g)", s, sol.U, la.Norm2(f))
		}
		if sol.SettleTau < 50 {
			t.Fatalf("start %v: settle time %.1f cannot precede the λ ramp", s, sol.SettleTau)
		}
	}
}

// TestSolveSparseMatchesDenseNoiseless checks the banded quotient loop
// against an oracle: the same noiseless run with δ solved from a dense LU
// of JᵀJ + εI.
func TestSolveSparseMatchesDenseNoiseless(t *testing.T) {
	sys := &tridiagonalQuadratic{n: 6}
	u0 := make([]float64, 6)
	for i := range u0 {
		u0[i] = 0.4
	}
	opts := SolveOptions{DynamicRange: 2, DisableNoise: true}
	acc := NewPrototype(7)
	sparse, err := acc.SolveSparse(nil, sys, u0, opts)
	if err != nil {
		t.Fatal(err)
	}
	ss, err := newScaledSparse(sys, opts.DynamicRange)
	if err != nil {
		t.Fatal(err)
	}
	g := make([]float64, ss.Dim())
	denseOracle := func(_ float64, w []float64, _ []*NewtonCell, delta []float64) error {
		if err := ss.Eval(w, g); err != nil {
			return err
		}
		j, err := ss.JacobianCSR(w)
		if err != nil {
			return err
		}
		jt := j.ToDense().Transpose()
		jtj := la.Mul(jt, j.ToDense())
		for i := range g {
			jtj.Add(i, i, QuotientLoopEpsilon)
		}
		jt.MulVec(delta, g)
		x, err := la.SolveDense(jtj, delta)
		copy(delta, x)
		return err
	}
	dense, err := acc.run(nil, ss, u0, opts, fabricMode{loop: denseOracle, start: "initial guess", evolution: "circuit"})
	if err != nil {
		t.Fatal(err)
	}
	for i := range dense.U {
		if math.Abs(dense.U[i]-sparse.U[i]) > 5e-3 {
			t.Fatalf("dense/sparse mismatch at %d: %g vs %g", i, dense.U[i], sparse.U[i])
		}
	}
}

func TestSolveSparseWithNoiseSettles(t *testing.T) {
	sys := &tridiagonalQuadratic{n: 8}
	u0 := make([]float64, 8)
	acc := NewPrototype(8)
	sol, err := acc.SolveSparse(nil, sys, u0, SolveOptions{DynamicRange: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Converged {
		t.Fatal("sparse noisy solve should settle")
	}
	f := make([]float64, 8)
	if err := sys.Eval(sol.U, f); err != nil {
		t.Fatal(err)
	}
	if la.Norm2(f) > 0.6 {
		t.Fatalf("sparse noisy residual too large: %g", la.Norm2(f))
	}
}

// tridiagonalQuadratic: F_i = u_i² + 2u_i − 1 + 0.2(u_{i−1}+u_{i+1}).
type tridiagonalQuadratic struct{ n int }

func (s *tridiagonalQuadratic) Dim() int { return s.n }

func (s *tridiagonalQuadratic) Eval(u, f []float64) error {
	for i := 0; i < s.n; i++ {
		f[i] = u[i]*u[i] + 2*u[i] - 1
		if i > 0 {
			f[i] += 0.2 * u[i-1]
		}
		if i < s.n-1 {
			f[i] += 0.2 * u[i+1]
		}
	}
	return nil
}

func (s *tridiagonalQuadratic) JacobianCSR(u []float64) (*la.CSR, error) {
	b := la.NewCOO(s.n, s.n)
	for i := 0; i < s.n; i++ {
		b.Append(i, i, 2*u[i]+2)
		if i > 0 {
			b.Append(i, i-1, 0.2)
		}
		if i < s.n-1 {
			b.Append(i, i+1, 0.2)
		}
	}
	return b.ToCSR(), nil
}

func TestQuantize(t *testing.T) {
	if q := quantize(0.5, 8); math.Abs(q-0.5) > 1.0/256 {
		t.Fatalf("quantize(0.5, 8) = %g", q)
	}
	if q := quantize(1.7, 8); q != 1 {
		t.Fatalf("quantize should clip to +1, got %g", q)
	}
	if q := quantize(-1.7, 8); q != -1 {
		t.Fatalf("quantize should clip to −1, got %g", q)
	}
	if q := quantize(0.123456, 0); q != 0.123456 {
		t.Fatal("bits ≤ 0 must bypass quantisation")
	}
	// 8-bit grid spacing is 1/128.
	if q := quantize(1.0/256+1e-9, 8); math.Abs(q-1.0/128) > 1e-12 && q != 0 {
		t.Fatalf("unexpected grid: %g", q)
	}
}

func TestScaledSystemPreservesRoots(t *testing.T) {
	sys := quadPair(1, -1)
	ss, err := newScaledSparse(sys, 3)
	if err != nil {
		t.Fatal(err)
	}
	// (1, −1) is an exact root of the hard system; w = u/3.
	g := make([]float64, 2)
	if err := ss.Eval([]float64{1.0 / 3, -1.0 / 3}, g); err != nil {
		t.Fatal(err)
	}
	if la.Norm2(g) > 1e-12 {
		t.Fatalf("scaled system should vanish at the scaled root, got %g", la.Norm2(g))
	}
	// Jacobian consistency with forward differences in w-space.
	w := []float64{0.2, -0.1}
	csr, err := ss.JacobianCSR(w)
	if err != nil {
		t.Fatal(err)
	}
	jac := csr.ToDense()
	f0, fp := make([]float64, 2), make([]float64, 2)
	if err := ss.Eval(w, f0); err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 2; j++ {
		wp := la.Copy(w)
		h := 1e-7 * (1 + math.Abs(w[j]))
		wp[j] += h
		if err := ss.Eval(wp, fp); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			if fd := (fp[i] - f0[i]) / h; math.Abs(jac.At(i, j)-fd) > 1e-5 {
				t.Fatalf("scaled Jacobian mismatch at (%d,%d): %g vs %g", i, j, jac.At(i, j), fd)
			}
		}
	}
}
