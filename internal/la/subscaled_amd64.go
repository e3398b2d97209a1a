package la

// useAVX2 selects the vector row update; it is fixed at package init.
var useAVX2 = cpuHasAVX2()

// subScaledMinVec is the shortest row the vector kernel takes: below it
// the assembly call costs more than its lanes save.
const subScaledMinVec = 8

// subScaled sets y[t] −= m·x[t] for every t < len(y); len(x) ≥ len(y), and
// y and x do not overlap. On a CPU with AVX2 a row of subScaledMinVec or
// more runs four lanes at a time, with the same roundings in the same
// order as subScaledGo, so every bit matches it.
func subScaled(y, x []float64, m float64) {
	if useAVX2 && len(y) >= subScaledMinVec {
		subScaledAVX2(y, x[:len(y)], m)
		return
	}
	subScaledGo(y, x, m)
}

// cpuHasAVX2 reports whether the CPU and OS support AVX2.
func cpuHasAVX2() bool

//go:noescape
func subScaledAVX2(y, x []float64, m float64)
