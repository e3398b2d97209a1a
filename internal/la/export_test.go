package la

// NormalEquations and CheckCholeskyRef expose the assembled-AᵀA+εI oracle
// and the scalar Cholesky reference to the package's external tests, which
// can build PDE Jacobians.
var (
	NormalEquations  = normalEquations
	CheckCholeskyRef = checkCholeskyRef
)

// SetVectorRowUpdate turns the AVX2 row update on or off and returns the
// previous setting. Turning it on where it was off at init would execute
// AVX2 instructions the CPU may lack, so callers restore what it returned.
func SetVectorRowUpdate(on bool) (was bool) {
	was, useAVX2 = useAVX2, on
	return was
}

// BandLUStorage and BandCholeskyStorage return the factors' band storage
// (and the band LU's pivots), for bit-for-bit comparisons.
func BandLUStorage(f *BandLU) ([]float64, []int) { return f.data, f.piv }

func BandCholeskyStorage(f *BandCholesky) []float64 { return f.data }

// BandLUEntry returns entry (i, j) of a band LU factor, −kl ≤ j−i ≤ ku+kl:
// U's on and above the diagonal, the multiplier L(i, j) below it.
func BandLUEntry(f *BandLU, i, j int) float64 { return f.data[j*f.ld+f.kl+f.ku+i-j] }
