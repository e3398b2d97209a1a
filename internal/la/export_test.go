package la

// NormalEquations exposes the assembled-AᵀA+εI oracle to the package's
// external tests, which can build PDE Jacobians.
var NormalEquations = normalEquations
