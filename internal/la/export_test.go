package la

// NormalEquations and CheckCholeskyRef expose the assembled-AᵀA+εI oracle
// and the scalar Cholesky reference to the package's external tests, which
// can build PDE Jacobians.
var (
	NormalEquations  = normalEquations
	CheckCholeskyRef = checkCholeskyRef
)
