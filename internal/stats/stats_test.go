package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestRMSError(t *testing.T) {
	a := []float64{1, 2, 3}
	d := []float64{1, 2, 3}
	if RMSError(a, d, 0) != 0 {
		t.Fatal("identical vectors must have zero RMS error")
	}
	a2 := []float64{2, 2}
	d2 := []float64{0, 0}
	if got := RMSError(a2, d2, 0); math.Abs(got-2) > 1e-15 {
		t.Fatalf("RMS = %g, want 2", got)
	}
	if got := RMSError(a2, d2, 4); math.Abs(got-0.5) > 1e-15 {
		t.Fatalf("scaled RMS = %g, want 0.5", got)
	}
}

func TestRMSErrorNonNegativeProperty(t *testing.T) {
	f := func(a, b [6]float64) bool {
		for i := range a {
			if math.IsNaN(a[i]) || math.IsInf(a[i], 0) {
				a[i] = 0
			}
			if math.IsNaN(b[i]) || math.IsInf(b[i], 0) {
				b[i] = 0
			}
			a[i] = math.Mod(a[i], 1e100)
			b[i] = math.Mod(b[i], 1e100)
		}
		return RMSError(a[:], b[:], 0) >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMeanStdDev(t *testing.T) {
	x := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if Mean(x) != 5 {
		t.Fatalf("mean %g, want 5", Mean(x))
	}
	// Sample stddev of this classic set is ~2.138.
	if got := StdDev(x); math.Abs(got-2.138) > 0.01 {
		t.Fatalf("stddev %g, want ≈2.138", got)
	}
	if StdDev([]float64{1}) != 0 || Mean(nil) != 0 {
		t.Fatal("degenerate inputs mishandled")
	}
}

func TestTotalRMS(t *testing.T) {
	if got := TotalRMS([]float64{3, 4}); math.Abs(got-math.Sqrt(12.5)) > 1e-12 {
		t.Fatalf("TotalRMS = %g", got)
	}
	if TotalRMS(nil) != 0 {
		t.Fatal("empty TotalRMS should be 0")
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(0, 10, 5)
	for _, v := range []float64{1, 1, 3, 5, 9, 11, -2} {
		h.Observe(v)
	}
	if h.N != 7 {
		t.Fatalf("N = %d, want 7", h.N)
	}
	if h.Counts[0] != 3 { // 1, 1 and clamped −2
		t.Fatalf("bin 0 count %d, want 3", h.Counts[0])
	}
	if h.Counts[4] != 2 { // 9 and clamped 11
		t.Fatalf("bin 4 count %d, want 2", h.Counts[4])
	}
	if c := h.BinCenter(0); math.Abs(c-1) > 1e-12 {
		t.Fatalf("bin 0 center %g, want 1", c)
	}
	if !strings.Contains(h.String(), "│") {
		t.Fatal("String should render bars")
	}
}
