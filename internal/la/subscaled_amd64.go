package la

// useAVX2 selects la's AVX2 kernels; it is fixed at package init.
var useAVX2 = cpuHasAVX2()

// cpuHasAVX2 reports whether the CPU and OS support AVX2.
func cpuHasAVX2() bool

//go:noescape
func subScaledRowsAVX2(y, x, m []float64, ystride, xstride, mstride, n0, dn, rows int, d float64, nd int)

//go:noescape
func bandUpdateAVX2(c, l []float64, stride, cols, steps, e, ragged int)

//go:noescape
func bandPanelAVX2(x []float64, ld, e, last int, nz *[4]int) (nb, stop int)
