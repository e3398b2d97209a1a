// Package stats provides the error metric and summary statistics the
// paper's evaluation uses: the RMS solution-error metric of Equation 6,
// histograms for the Figure 6 error distribution, and mean/stddev summaries
// for the Figure 8 error bars.
package stats

import (
	"fmt"
	"math"
	"strings"
)

// RMSError implements Equation 6: sqrt(Σ(uₐ−u_d)²/N), the error between an
// analog and a digital solution. When scale > 0 the result is normalised by
// it (the paper reports percentages of the dynamic range).
func RMSError(analog, digital []float64, scale float64) float64 {
	if len(analog) != len(digital) {
		panic(fmt.Sprintf("stats: RMSError length mismatch %d vs %d", len(analog), len(digital)))
	}
	if len(analog) == 0 {
		return 0
	}
	s := 0.0
	for i := range analog {
		d := analog[i] - digital[i]
		s += d * d
	}
	r := math.Sqrt(s / float64(len(analog)))
	if scale > 0 {
		r /= scale
	}
	return r
}

// Mean returns the arithmetic mean; 0 for empty input.
func Mean(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range x {
		s += v
	}
	return s / float64(len(x))
}

// StdDev returns the sample standard deviation; 0 for fewer than 2 points.
func StdDev(x []float64) float64 {
	if len(x) < 2 {
		return 0
	}
	m := Mean(x)
	s := 0.0
	for _, v := range x {
		d := v - m
		s += d * d
	}
	return math.Sqrt(s / float64(len(x)-1))
}

// TotalRMS aggregates per-trial RMS errors the way the paper reports "the
// total RMS error for the 400 trials": the quadratic mean across trials.
func TotalRMS(perTrial []float64) float64 {
	if len(perTrial) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range perTrial {
		s += v * v
	}
	return math.Sqrt(s / float64(len(perTrial)))
}

// Histogram bins values into equal-width buckets over [min, max].
type Histogram struct {
	Min, Max float64
	Counts   []int
	N        int
}

// NewHistogram builds a histogram with the given number of bins. Values
// outside [min, max] are clamped into the edge bins.
func NewHistogram(min, max float64, bins int) *Histogram {
	if bins < 1 || max <= min {
		panic("stats: invalid histogram parameters")
	}
	return &Histogram{Min: min, Max: max, Counts: make([]int, bins)}
}

// Observe adds one value.
func (h *Histogram) Observe(v float64) {
	bins := len(h.Counts)
	k := int(float64(bins) * (v - h.Min) / (h.Max - h.Min))
	if k < 0 {
		k = 0
	}
	if k >= bins {
		k = bins - 1
	}
	h.Counts[k]++
	h.N++
}

// BinCenter returns the midpoint of bin k.
func (h *Histogram) BinCenter(k int) float64 {
	w := (h.Max - h.Min) / float64(len(h.Counts))
	return h.Min + w*(float64(k)+0.5)
}

// String renders an ASCII bar chart, one row per bin.
func (h *Histogram) String() string {
	var b strings.Builder
	maxC := 0
	for _, c := range h.Counts {
		if c > maxC {
			maxC = c
		}
	}
	for k, c := range h.Counts {
		bar := 0
		if maxC > 0 {
			bar = c * 50 / maxC
		}
		fmt.Fprintf(&b, "%8.3f │%s %d\n", h.BinCenter(k), strings.Repeat("█", bar), c)
	}
	return b.String()
}
