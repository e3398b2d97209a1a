//go:build !amd64

package la

// useAVX2 is false: only amd64 has the vector row update.
var useAVX2 = false

// subScaledRowsAVX2 is never called: useAVX2 is false off amd64.
func subScaledRowsAVX2(y, x, m []float64, ystride, xstride, mstride, n0, dn, rows int, d float64, nd int) {
	panic("la: no vector row update off amd64")
}
