// Package promtext is the repo's shared, deliberately small stdlib-only
// implementation of the Prometheus text exposition format (version 0.0.4).
// The dependency rule forbids client_golang, and the subset a solve service
// and its gateway need — counters, gauges, cumulative histograms, small
// label vectors — is a couple hundred lines. Metric values are atomics or
// mutex-guarded maps, so every type here is safe for concurrent request
// handlers; every renderer emits labelled children in sorted order, so
// scrapes of unchanged state are byte-identical (the contract the maprange
// lint rule guards statically).
package promtext

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing event count.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an instantaneous level (queue depth, in-flight solves).
type Gauge struct{ v atomic.Int64 }

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Set stores x.
func (g *Gauge) Set(x int64) { g.v.Store(x) }

// Value returns the current level.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram accumulates observations into fixed cumulative buckets, the
// Prometheus histogram shape (le="..." upper bounds plus +Inf, _sum,
// _count).
type Histogram struct {
	mu     sync.Mutex
	bounds []float64 // strictly increasing upper bounds, +Inf implicit
	counts []uint64  // len(bounds)+1; last element is the +Inf bucket
	sum    float64
	count  uint64
}

// NewHistogram builds a histogram over the given strictly increasing
// bucket upper bounds.
func NewHistogram(bounds ...float64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]uint64, len(bounds)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i]++
	h.sum += v
	h.count++
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Sum returns the running sum of all observations. Together with Count it
// lets a controller derive per-interval means from cumulative deltas.
func (h *Histogram) Sum() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// HistogramVec is a histogram family with one label; children are created
// on first use and rendered in sorted label order under one family header.
type HistogramVec struct {
	mu     sync.Mutex
	label  string
	bounds []float64
	vals   map[string]*Histogram
}

// NewHistogramVec builds a histogram family keyed by one label name.
func NewHistogramVec(label string, bounds ...float64) *HistogramVec {
	return &HistogramVec{label: label, bounds: bounds, vals: map[string]*Histogram{}}
}

// With returns the child histogram for the given label value.
func (v *HistogramVec) With(value string) *Histogram {
	v.mu.Lock()
	defer v.mu.Unlock()
	h, ok := v.vals[value]
	if !ok {
		h = NewHistogram(v.bounds...)
		v.vals[value] = h
	}
	return h
}

// CounterVec is a counter family with a fixed label-name set; children are
// created on first use and rendered in sorted label order.
type CounterVec struct {
	mu     sync.Mutex
	labels []string // label names, in render order
	vals   map[string]*Counter
}

// NewCounterVec builds a counter family keyed by the given label names.
func NewCounterVec(labels ...string) *CounterVec {
	return &CounterVec{labels: labels, vals: map[string]*Counter{}}
}

// With returns the child counter for the given label values (same order as
// the label names).
func (v *CounterVec) With(values ...string) *Counter {
	key := strings.Join(values, "\xff")
	v.mu.Lock()
	defer v.mu.Unlock()
	c, ok := v.vals[key]
	if !ok {
		c = &Counter{}
		v.vals[key] = c
	}
	return c
}

// GaugeVec is a gauge family with a fixed label-name set; children are
// created on first use and rendered in sorted label order.
type GaugeVec struct {
	mu     sync.Mutex
	labels []string
	vals   map[string]*Gauge
}

// NewGaugeVec builds a gauge family keyed by the given label names.
func NewGaugeVec(labels ...string) *GaugeVec {
	return &GaugeVec{labels: labels, vals: map[string]*Gauge{}}
}

// With returns the child gauge for the given label values.
func (v *GaugeVec) With(values ...string) *Gauge {
	key := strings.Join(values, "\xff")
	v.mu.Lock()
	defer v.mu.Unlock()
	g, ok := v.vals[key]
	if !ok {
		g = &Gauge{}
		v.vals[key] = g
	}
	return g
}

// WriteHeader emits the HELP and TYPE lines of one metric family.
func WriteHeader(w io.Writer, name, help, typ string) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// WriteCounter renders a single unlabelled counter family.
func WriteCounter(w io.Writer, name, help string, c *Counter) {
	WriteHeader(w, name, help, "counter")
	fmt.Fprintf(w, "%s %d\n", name, c.Value())
}

// WriteGauge renders a single unlabelled gauge family.
func WriteGauge(w io.Writer, name, help string, g *Gauge) {
	WriteHeader(w, name, help, "gauge")
	fmt.Fprintf(w, "%s %d\n", name, g.Value())
}

// WriteCounterVec renders a labelled counter family, children in sorted
// label order.
func WriteCounterVec(w io.Writer, name, help string, v *CounterVec) {
	WriteHeader(w, name, help, "counter")
	v.mu.Lock()
	defer v.mu.Unlock()
	for _, k := range sortedKeysCounter(v.vals) {
		fmt.Fprintf(w, "%s{%s} %d\n", name, labelPairs(v.labels, k), v.vals[k].Value())
	}
}

// WriteGaugeVec renders a labelled gauge family, children in sorted label
// order.
func WriteGaugeVec(w io.Writer, name, help string, v *GaugeVec) {
	WriteHeader(w, name, help, "gauge")
	v.mu.Lock()
	defer v.mu.Unlock()
	for _, k := range sortedKeysGauge(v.vals) {
		fmt.Fprintf(w, "%s{%s} %d\n", name, labelPairs(v.labels, k), v.vals[k].Value())
	}
}

// WriteHistogram renders an unlabelled histogram family: cumulative
// buckets, then _sum and _count.
func WriteHistogram(w io.Writer, name, help string, h *Histogram) {
	WriteHeader(w, name, help, "histogram")
	h.mu.Lock()
	defer h.mu.Unlock()
	var cum uint64
	for i, b := range h.bounds {
		cum += h.counts[i]
		fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, FormatBound(b), cum)
	}
	cum += h.counts[len(h.bounds)]
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, cum)
	fmt.Fprintf(w, "%s_sum %g\n", name, h.sum)
	fmt.Fprintf(w, "%s_count %d\n", name, h.count)
}

// WriteHistogramVec renders a labelled histogram family: children in
// sorted label-value order, each with the standard cumulative bucket, _sum
// and _count series carrying the label.
func WriteHistogramVec(w io.Writer, name, help string, v *HistogramVec) {
	WriteHeader(w, name, help, "histogram")
	v.mu.Lock()
	defer v.mu.Unlock()
	keys := make([]string, 0, len(v.vals))
	for k := range v.vals {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		h := v.vals[k]
		h.mu.Lock() //pdevet:allow locknest Observe takes only the child's lock, so no path takes v.mu while holding h.mu
		var cum uint64
		for i, b := range h.bounds {
			cum += h.counts[i]
			fmt.Fprintf(w, "%s_bucket{%s=%q,le=%q} %d\n", name, v.label, k, FormatBound(b), cum)
		}
		cum += h.counts[len(h.bounds)]
		fmt.Fprintf(w, "%s_bucket{%s=%q,le=\"+Inf\"} %d\n", name, v.label, k, cum)
		fmt.Fprintf(w, "%s_sum{%s=%q} %g\n", name, v.label, k, h.sum)
		fmt.Fprintf(w, "%s_count{%s=%q} %d\n", name, v.label, k, h.count)
		h.mu.Unlock()
	}
}

// sortedKeysCounter collects and sorts a counter map's keys so renders are
// independent of Go's randomized map order.
func sortedKeysCounter(vals map[string]*Counter) []string {
	keys := make([]string, 0, len(vals))
	for k := range vals {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// sortedKeysGauge is sortedKeysCounter for gauge maps.
func sortedKeysGauge(vals map[string]*Gauge) []string {
	keys := make([]string, 0, len(vals))
	for k := range vals {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// labelPairs renders `name="value",…` for one child's joined key.
func labelPairs(labels []string, key string) string {
	values := strings.Split(key, "\xff")
	parts := make([]string, len(values))
	for i, lv := range values {
		parts[i] = fmt.Sprintf("%s=%q", labels[i], lv)
	}
	return strings.Join(parts, ",")
}

// FormatBound renders a bucket bound the way Prometheus clients do:
// shortest representation that round-trips.
func FormatBound(b float64) string {
	return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%.6f", b), "0"), ".")
}
