//go:build !amd64

package la

// useAVX2 is false: only amd64 has the AVX2 kernels.
var useAVX2 = false

// subScaledRowsAVX2 is never called: useAVX2 is false off amd64.
func subScaledRowsAVX2(y, x, m []float64, ystride, xstride, mstride, n0, dn, rows int, d float64, nd int) {
	panic("la: no vector row update off amd64")
}

// bandUpdateAVX2 is never called: useAVX2 is false off amd64.
func bandUpdateAVX2(c, l []float64, stride, cols, steps, e, ragged int) {
	panic("la: no vector band update off amd64")
}

// bandPanelAVX2 is never called: useAVX2 is false off amd64.
func bandPanelAVX2(x []float64, ld, e, last int, nz *[4]int) (nb, stop int) {
	panic("la: no vector band panel off amd64")
}
