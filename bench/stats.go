package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a percentile for it to be
// reported: a p99 of 200 samples is two points, not a percentile.
const minBeyond = 10

// dist is a sorted sample set. Every figure taken from it states n.
type dist struct {
	sorted []float64
}

func newDist(xs []float64) dist {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return dist{s}
}

func (d dist) n() int { return len(d.sorted) }

// pctl returns the p-th percentile (0 < p < 100) by nearest rank, and whether
// the sample supports it: at least minBeyond samples lie beyond it (above it
// for p ≥ 50, below it otherwise). An unsupported percentile reads 0.
func (d dist) pctl(p float64) (v float64, ok bool) {
	n := len(d.sorted)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(p / 100 * float64(n))) // 1-based
	if rank < 1 {
		rank = 1
	}
	beyond := n - rank
	if p < 50 {
		beyond = rank - 1
	}
	if beyond < minBeyond {
		return 0, false
	}
	return d.sorted[rank-1], true
}

// median is the 50th percentile with no support floor: the middle of any
// non-empty sample is meaningful. Even sizes average the two middle values.
func (d dist) median() float64 {
	n := len(d.sorted)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return d.sorted[n/2]
	default:
		return (d.sorted[n/2-1] + d.sorted[n/2]) / 2
	}
}

func (d dist) max() float64 {
	if len(d.sorted) == 0 {
		return 0
	}
	return d.sorted[len(d.sorted)-1]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

func medianOf(xs []float64) float64 { return newDist(xs).median() }

func ratio(num, den float64) float64 {
	if den == 0 { //pdevet:allow floateq zero is the exact nothing-counted case, not a computed value
		return 0
	}
	return num / den
}
