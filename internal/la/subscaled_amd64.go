package la

// useAVX2 selects the vector row update; it is fixed at package init.
var useAVX2 = cpuHasAVX2()

// cpuHasAVX2 reports whether the CPU and OS support AVX2.
func cpuHasAVX2() bool

//go:noescape
func subScaledRowsAVX2(y, x, m []float64, ystride, xstride, mstride, n0, dn, rows int, d float64, nd int)
