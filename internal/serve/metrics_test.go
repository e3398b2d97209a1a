package serve

import (
	"strings"
	"sync"
	"testing"
)

// The metric kit itself (histograms, vectors, render determinism) is
// tested in internal/promtext; these tests pin the service-level contract:
// the fixed family set, its exposition order, and byte-identical scrapes
// of the whole page.

func TestServeMetricsFamiliesAndOrder(t *testing.T) {
	m := newServeMetrics()
	m.requests.With("burgers2d", "200").Inc()
	m.requests.With("burgers2d", "200").Inc()
	m.requests.With("unknown", "400").Inc()
	var sb strings.Builder
	m.writeProm(&sb)
	out := sb.String()
	i := strings.Index(out, `pdeserve_requests_total{problem="burgers2d",code="200"} 2`)
	j := strings.Index(out, `pdeserve_requests_total{problem="unknown",code="400"} 1`)
	if i < 0 || j < 0 {
		t.Fatalf("labelled children missing:\n%s", out)
	}
	if i > j {
		t.Fatal("labelled children not rendered in sorted order")
	}
	// Every family must carry HELP and TYPE headers.
	for _, typ := range []string{"counter", "gauge", "histogram"} {
		if !strings.Contains(out, " "+typ+"\n") {
			t.Errorf("no %s TYPE header in exposition", typ)
		}
	}
	// The fixed family set stays present even at zero.
	for _, name := range []string{
		"pdeserve_queue_rejects_total", "pdeserve_queue_depth",
		"pdeserve_inflight_solves", "pdeserve_draining",
		"pdeserve_solve_latency_seconds", "pdeserve_cache_hits_total",
		"pdeserve_ladder_attempts_total", "pdeserve_fault_injection_active",
	} {
		if !strings.Contains(out, "# HELP "+name+" ") {
			t.Errorf("family %s missing from exposition", name)
		}
	}
}

// TestMetricsScrapeByteIdentical pins the contract the maprange lint rule
// guards statically: with enough labelled children that Go's per-iteration
// map order randomization would show through an unsorted render, repeated
// scrapes of unchanged state must be byte-identical.
func TestMetricsScrapeByteIdentical(t *testing.T) {
	m := newServeMetrics()
	problems := []string{"burgers2d", "unknown", "bratu1d", "fisher", "heat3d", "allencahn"}
	codes := []string{"200", "422", "503"}
	for _, pr := range problems {
		for _, c := range codes {
			m.requests.With(pr, c).Inc()
		}
		m.newtonIters.With(pr).Observe(7)
		m.ladderAttempts.With(pr).Inc()
	}
	var first strings.Builder
	m.writeProm(&first)
	for i := 0; i < 30; i++ {
		var again strings.Builder
		m.writeProm(&again)
		if again.String() != first.String() {
			t.Fatalf("scrape %d differs from first scrape:\n--- first\n%s\n--- scrape %d\n%s", i, first.String(), i, again.String())
		}
	}
}

func TestMetricsConcurrent(t *testing.T) {
	m := newServeMetrics()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				m.requests.With("burgers2d", "200").Inc()
				m.queueDepth.Inc()
				m.solveLatency.Observe(float64(i) * 1e-4)
				m.queueDepth.Dec()
			}
		}(g)
	}
	var sb strings.Builder
	for i := 0; i < 50; i++ {
		sb.Reset()
		m.writeProm(&sb) // scrape concurrently with writes
	}
	wg.Wait()
	if got := m.requests.With("burgers2d", "200").Value(); got != 4000 {
		t.Fatalf("requests counter = %d, want 4000", got)
	}
	if got := m.queueDepth.Value(); got != 0 {
		t.Fatalf("queue depth gauge = %d, want 0", got)
	}
	if got := m.solveLatency.Count(); got != 4000 {
		t.Fatalf("histogram count = %d, want 4000", got)
	}
}
