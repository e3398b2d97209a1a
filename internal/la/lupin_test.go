package la_test

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"hybridpde/internal/la"
	"hybridpde/internal/pde"
)

// luPinCase is one group of band-LU factor-and-solves whose bits are pinned
// by a hash: the matrices a group builds are deterministic in its seed.
type luPinCase struct {
	name string
	mats func(rng *rand.Rand) ([]*la.CSR, error)
	hash uint64
}

// hashBandLU folds everything one factor-and-solve of a leaves behind into
// h: the factor error, then on success FactorOps, the pivots, every
// in-band entry of L and U read by logical position (i, j), and the bits
// (or error) of Solve on two right-hand sides, one of them with exact
// zeros. Reading entries by position rather than by storage offset keeps
// the hash independent of the band layout.
func hashBandLU(t *testing.T, h interface{ Write([]byte) (int, error) }, a *la.CSR, rng *rand.Rand) {
	t.Helper()
	var buf [8]byte
	word := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	kl, ku := la.Bandwidths(a)
	n := a.Rows()
	var f la.BandLU
	err := la.FactorBandLUInto(&f, a, kl, ku)
	fmt.Fprintf(h, "n=%d kl=%d ku=%d err=%v;", n, kl, ku, err)
	if err != nil {
		return
	}
	word(uint64(f.FactorOps))
	_, piv := la.BandLUStorage(&f)
	for _, p := range piv {
		word(uint64(p))
	}
	for i := 0; i < n; i++ {
		for j := max(0, i-kl); j <= min(n-1, i+ku+kl); j++ {
			word(math.Float64bits(la.BandLUEntry(&f, i, j)))
		}
	}
	for rhs := 0; rhs < 2; rhs++ {
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
			if rhs == 1 && i%3 == 0 {
				b[i] = 0
			}
		}
		x := make([]float64, n)
		err := f.Solve(x, b)
		fmt.Fprintf(h, "solve err=%v;", err)
		for _, v := range x {
			word(math.Float64bits(v))
		}
	}
}

// burgersJacobians returns the 2-D Burgers Jacobians of one grid and
// order, at the initial guess and at a perturbed state, for the transient
// step or (steady) the steady root system.
func burgersJacobians(grid, order int, steady bool) func(rng *rand.Rand) ([]*la.CSR, error) {
	return func(rng *rand.Rand) ([]*la.CSR, error) {
		b, err := pde.RandomBurgers(grid, 2, 3, rng)
		if err != nil {
			return nil, err
		}
		b.Order = order
		sys := interface {
			JacobianCSR([]float64) (*la.CSR, error)
		}(b)
		if steady {
			sys = pde.NewBurgersSteady(b)
		}
		w := b.InitialGuess()
		var out []*la.CSR
		for pass := 0; pass < 2; pass++ {
			j, err := sys.JacobianCSR(w)
			if err != nil {
				return nil, err
			}
			out = append(out, j.Clone())
			for i := range w {
				w[i] += 0.5 * (2*rng.Float64() - 1)
			}
		}
		return out, nil
	}
}

// specialValue draws a band entry: mostly normal, with exact ±0 (which
// make exact-zero multipliers), ±Inf, quiet NaNs with distinct payloads
// and a signalling NaN at the rates the mode asks for.
func specialValue(rng *rand.Rand, zeros, specials bool) float64 {
	r := rng.Intn(40)
	switch {
	case zeros && r < 4:
		return 0
	case zeros && r < 8:
		return math.Copysign(0, -1)
	case specials && r == 8:
		return math.Inf(1)
	case specials && r == 9:
		return math.Inf(-1)
	case specials && r == 10:
		return math.Float64frombits(0x7ff8000000000000 | uint64(rng.Intn(1<<20)+1))
	case specials && r == 11:
		return math.Float64frombits(0xfff8000000000000 | uint64(rng.Intn(1<<20)+1))
	case specials && r == 12:
		return math.Float64frombits(0x7ff0000000000000 | uint64(rng.Intn(1<<20)+1))
	}
	return rng.NormFloat64()
}

// randomBands draws count band matrices of assorted shapes whose diagonal
// is small against the entries below it, so partial pivoting interchanges
// rows, with entries from specialValue.
func randomBands(count int, zeros, specials bool) func(rng *rand.Rand) ([]*la.CSR, error) {
	return func(rng *rand.Rand) ([]*la.CSR, error) {
		var out []*la.CSR
		for c := 0; c < count; c++ {
			n := 1 + rng.Intn(48)
			kl, ku := rng.Intn(min(n, 12)), rng.Intn(min(n, 12))
			b := la.NewCOO(n, n)
			for i := 0; i < n; i++ {
				for j := max(0, i-kl); j <= min(n-1, i+ku); j++ {
					v := specialValue(rng, zeros, specials)
					if i == j && c%2 == 0 {
						v *= 0.05
					}
					b.Append(i, j, v)
				}
			}
			out = append(out, b.ToCSR())
		}
		return out, nil
	}
}

// TestBandLUPinned pins every bit a band-LU factor-and-solve produces — L,
// U, pivots, FactorOps and Solve's output — on the Jacobians the service
// factors (2-D Burgers at n = 4…16 and orders 2 and 4, the steady root
// system, 1-D Burgers at n = 1024) and on seeded random band matrices that
// interchange rows, hold exact ±0 entries and zero multipliers, or hold
// ±Inf and NaNs with distinct payloads. A change to the band layout or the
// elimination kernels must leave every hash where it is.
func TestBandLUPinned(t *testing.T) {
	cases := []luPinCase{
		{"burgers2d n=4 order 2", burgersJacobians(4, 2, false), 0x9946f24ad15ef6b1},
		{"burgers2d n=8 order 2", burgersJacobians(8, 2, false), 0x1bf9239754f766b8},
		{"burgers2d n=12 order 2", burgersJacobians(12, 2, false), 0xbfb95fc8cab0b918},
		{"burgers2d n=16 order 2", burgersJacobians(16, 2, false), 0xc7b4733cb9ce052c},
		{"burgers2d n=4 order 4", burgersJacobians(4, 4, false), 0x897d2c03defa8970},
		{"burgers2d n=8 order 4", burgersJacobians(8, 4, false), 0x43055573de697cfc},
		{"burgers2d n=12 order 4", burgersJacobians(12, 4, false), 0x24e3e99e85d8bf50},
		{"burgers2d n=16 order 4", burgersJacobians(16, 4, false), 0x0dd09cada1a19ddc},
		{"burgers-steady n=8", burgersJacobians(8, 2, true), 0x7a28bc0b52df6b12},
		{"burgers1d n=1024", func(rng *rand.Rand) ([]*la.CSR, error) {
			b, err := pde.RandomBurgers1D(1024, 2, 3, rng)
			if err != nil {
				return nil, err
			}
			j, err := b.JacobianCSR(b.InitialGuess())
			return []*la.CSR{j}, err
		}, 0x716b48158571178e},
		{"random interchanges", randomBands(40, false, false), 0x4eee925b98c58ecf},
		{"random ±0 and zero multipliers", randomBands(40, true, false), 0x5f2c5af4e1b8ba32},
		{"random ±Inf and NaN", randomBands(40, true, true), 0x033170084ce4d889},
	}
	// Both the Go kernels and, where the CPU has them, the vector kernels.
	vec := la.SetVectorRowUpdate(false)
	defer la.SetVectorRowUpdate(vec)
	for _, path := range []bool{false, vec} {
		la.SetVectorRowUpdate(path)
		for ci, c := range cases {
			rng := rand.New(rand.NewSource(int64(4400 + ci)))
			mats, err := c.mats(rng)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			h := fnv.New64a()
			for _, a := range mats {
				hashBandLU(t, h, a, rng)
			}
			if got := h.Sum64(); got != c.hash {
				t.Errorf("%s (vector kernels %v): band-LU hash %#016x, pinned %#016x", c.name, path, got, c.hash)
			}
		}
	}
}
