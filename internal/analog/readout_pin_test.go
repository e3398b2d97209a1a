package analog

import (
	"context"
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"hybridpde/internal/pde"
)

// TestSolveSparseReadoutPinned holds what a seeded solve consumes from the
// fabric — the ADC readout U and the settled flag — to golden bits over a
// 60-problem sweep: n ∈ {4, 8}, 30 seeds each, Reynolds number 1…4, a fresh
// board per problem. Unlike TestFabricRunBitsPinned it leaves out the raw
// integrator state W, the settle time and the residual, so an integrator or
// factor change that moves only their last bits keeps it green, while any
// change the readout's quantisation does not absorb fails it.
func TestSolveSparseReadoutPinned(t *testing.T) {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, n := range []int{4, 8} {
		for s := 0; s < 30; s++ {
			b, err := pde.RandomBurgers(n, float64(1+s%4), 1, rand.New(rand.NewSource(int64(100+s))))
			if err != nil {
				t.Fatal(err)
			}
			acc, err := NewScaled(n, int64(s))
			if err != nil {
				t.Fatal(err)
			}
			sol, err := acc.SolveSparse(context.Background(), b, b.InitialGuess(), SolveOptions{DynamicRange: 1.5})
			if err != nil {
				t.Fatalf("n=%d s=%d: %v", n, s, err)
			}
			for _, v := range sol.U {
				put(math.Float64bits(v))
			}
			if sol.Converged {
				put(1)
			} else {
				put(0)
			}
		}
	}
	const want = 0x12690e86f76354d5
	if got := h.Sum64(); got != want {
		t.Fatalf("readout checksum %#016x, want %#016x", got, want)
	}
}
