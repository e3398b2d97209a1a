//go:build !amd64

package la

// subScaled sets y[t] −= m·x[t] for every t < len(y); len(x) ≥ len(y), and
// y and x do not overlap.
func subScaled(y, x []float64, m float64) { subScaledGo(y, x, m) }
