package serve

import (
	"io"

	"hybridpde/internal/promtext"
)

// The service's metrics plane rides on internal/promtext, the repo's
// shared stdlib-only Prometheus text exposition kit (counters, gauges,
// cumulative histograms, small label vectors; deterministic sorted
// renders). This file only declares the fixed metric set of the solve
// service and its exposition order.

// metrics is the fixed metric set of the solve service.
type metrics struct {
	requests      *promtext.CounterVec   // labels: problem, code
	queueRejects  promtext.Counter       // 429s: admission queue full
	queueDepth    promtext.Gauge         // requests admitted but not yet executing
	inflight      promtext.Gauge         // solves executing on a worker
	draining      promtext.Gauge         // 1 while the server refuses new work
	workers       promtext.Gauge         // current worker-pool size (moves under Resize)
	resizes       *promtext.CounterVec   // labels: direction, reason — pool resizes
	budgetRejects promtext.Counter       // 504s: gateway deadline budget already spent
	budgetClamped promtext.Counter       // deadlines tightened by the gateway's budget header
	solveLatency  *promtext.Histogram    // seconds, measured wall time on the worker
	newtonIters   *promtext.HistogramVec // labels: start — Newton iterations by start source (cold/analog/warm)
	seedsTotal    promtext.Counter       // solves that ran the analog seeding stage
	seedsAccepted promtext.Counter       // seeds that improved on the initial residual

	// Solve-cache plane (internal/cache behind the ladder's cache rungs).
	cacheHits        promtext.Counter // exact content-address replays served
	cacheWarmHits    promtext.Counter // solves served by the warm-start rung
	cacheMisses      promtext.Counter // cache-consulting solves served by neither
	cacheStale       promtext.Counter // warm-start candidates rejected by the gate
	cacheFlightWaits promtext.Counter // requests that waited on an identical in-flight solve
	cacheEntries     promtext.Gauge   // current entry count of the shared store

	// Streaming plane (POST /v1/stream transient trajectories).
	framesStreamed  promtext.Counter    // NDJSON frames written and flushed to clients
	streamsInflight promtext.Gauge      // streams currently executing
	frameSolveTime  *promtext.Histogram // seconds a single frame's step solve took
	firstFrameTime  *promtext.Histogram // seconds from admission to the first flushed frame
	jacRefactors    promtext.Counter    // Jacobian refresh+refactorization events (stream steps)
	jacReuses       promtext.Counter    // linear solves served by a reused factorization (stream steps)
	streamsAborted  promtext.Counter    // streams ended early (ctx cancel, client gone, step failure)

	// Degradation-ladder plane (see internal/core ladder + internal/fault).
	ladderAttempts *promtext.CounterVec // labels: rung — rungs attempted, converged or not
	ladderServed   *promtext.CounterVec // labels: rung — final rung of each 200 response
	degraded       promtext.Counter     // 200s served below the planned pipeline
	seedsRejected  promtext.Counter     // analog seeds rejected by the quality gate
	retries        promtext.Counter     // in-handler retries of transient-fault solves
	faultsActive   promtext.Gauge       // configured fault count (0 outside chaos mode)
}

func newServeMetrics() *metrics {
	return &metrics{
		requests: promtext.NewCounterVec("problem", "code"),
		// 250 µs to ~8 s, doubling: spans a cached tiny solve through an
		// analog-seeded decomposed one.
		solveLatency: promtext.NewHistogram(0.00025, 0.0005, 0.001, 0.002, 0.004,
			0.008, 0.016, 0.032, 0.064, 0.128, 0.256, 0.512, 1.024, 2.048,
			4.096, 8.192),
		newtonIters: promtext.NewHistogramVec("start", 1, 2, 4, 8, 16, 32, 64, 128, 256, 512),
		// Per-frame solves are one implicit step from a warm level: much
		// faster than whole requests, so the buckets start at 50 µs.
		frameSolveTime: promtext.NewHistogram(0.00005, 0.0001, 0.00025, 0.0005,
			0.001, 0.002, 0.004, 0.008, 0.016, 0.032, 0.064, 0.128, 0.256,
			0.512, 1.024),
		firstFrameTime: promtext.NewHistogram(0.00025, 0.0005, 0.001, 0.002,
			0.004, 0.008, 0.016, 0.032, 0.064, 0.128, 0.256, 0.512, 1.024,
			2.048, 4.096, 8.192),
		ladderAttempts: promtext.NewCounterVec("rung"),
		ladderServed:   promtext.NewCounterVec("rung"),
		resizes:        promtext.NewCounterVec("direction", "reason"),
	}
}

// writeProm renders the exposition page. Families appear in a fixed order
// and labelled children in sorted order, so scrapes are deterministic.
func (m *metrics) writeProm(w io.Writer) {
	promtext.WriteCounterVec(w, "pdeserve_requests_total", "Solve requests by problem kind and HTTP status code.", m.requests)
	promtext.WriteCounter(w, "pdeserve_queue_rejects_total", "Requests rejected with 429 because the admission queue was full.", &m.queueRejects)
	promtext.WriteGauge(w, "pdeserve_queue_depth", "Requests admitted and waiting for a worker.", &m.queueDepth)
	promtext.WriteGauge(w, "pdeserve_inflight_solves", "Solves currently executing on a worker.", &m.inflight)
	promtext.WriteGauge(w, "pdeserve_draining", "1 while the server is draining and refusing new work.", &m.draining)
	promtext.WriteGauge(w, "pdeserve_workers", "Current worker-pool size (moves under the autoscaler's Resize).", &m.workers)
	promtext.WriteCounterVec(w, "pdeserve_resizes_total", "Worker-pool resizes, by direction and scale-decision reason.", m.resizes)
	promtext.WriteCounter(w, "pdeserve_deadline_budget_rejects_total", "Requests refused because the gateway's forwarded deadline budget was already spent.", &m.budgetRejects)
	promtext.WriteCounter(w, "pdeserve_deadline_budget_clamped_total", "Request deadlines tightened by the gateway's X-Pde-Deadline-Budget header.", &m.budgetClamped)
	promtext.WriteHistogram(w, "pdeserve_solve_latency_seconds",
		"Wall-clock seconds a request spent executing on a worker.", m.solveLatency)
	promtext.WriteHistogramVec(w, "pdeserve_newton_iterations",
		"Newton iterations of the digital polish stage, per solved (non-replayed) request, by start source.", m.newtonIters)
	promtext.WriteCounter(w, "pdeserve_analog_seeds_total", "Solves that ran the analog seeding stage.", &m.seedsTotal)
	promtext.WriteCounter(w, "pdeserve_analog_seeds_accepted_total", "Analog seeds that improved on the initial residual (acceptance rate = accepted/total).", &m.seedsAccepted)
	promtext.WriteCounter(w, "pdeserve_analog_seeds_rejected_total", "Analog seeds rejected by the degradation ladder's quality gate.", &m.seedsRejected)
	promtext.WriteCounterVec(w, "pdeserve_ladder_attempts_total", "Degradation-ladder rungs attempted, by rung (converged or not).", m.ladderAttempts)
	promtext.WriteCounterVec(w, "pdeserve_ladder_served_total", "Final rung that served each successful solve, by rung.", m.ladderServed)
	promtext.WriteCounter(w, "pdeserve_degraded_total", "Successful solves served below the planned pipeline rung.", &m.degraded)
	promtext.WriteCounter(w, "pdeserve_retries_total", "In-handler retries of degraded or transiently failed solves.", &m.retries)
	promtext.WriteCounter(w, "pdeserve_cache_hits_total", "Solves served by an exact content-address cache replay.", &m.cacheHits)
	promtext.WriteCounter(w, "pdeserve_cache_warm_hits_total", "Solves served by the warm-start continuation rung.", &m.cacheWarmHits)
	promtext.WriteCounter(w, "pdeserve_cache_misses_total", "Cache-consulting solves served by neither the cache nor the warm-start rung.", &m.cacheMisses)
	promtext.WriteCounter(w, "pdeserve_cache_stale_total", "Warm-start candidates rejected by the residual quality gate.", &m.cacheStale)
	promtext.WriteCounter(w, "pdeserve_cache_flight_waits_total", "Requests that waited on an identical in-flight solve instead of duplicating it.", &m.cacheFlightWaits)
	promtext.WriteGauge(w, "pdeserve_cache_entries", "Current entry count of the shared solve cache.", &m.cacheEntries)
	promtext.WriteCounter(w, "pdeserve_frames_streamed_total", "NDJSON frames written and flushed to streaming clients.", &m.framesStreamed)
	promtext.WriteGauge(w, "pdeserve_streams_in_flight", "Transient-trajectory streams currently executing.", &m.streamsInflight)
	promtext.WriteHistogram(w, "pdeserve_frame_solve_seconds", "Wall-clock seconds one stream frame's time step took to solve.", m.frameSolveTime)
	promtext.WriteHistogram(w, "pdeserve_first_frame_seconds", "Wall-clock seconds from stream admission to the first flushed frame.", m.firstFrameTime)
	promtext.WriteCounter(w, "pdeserve_jacobian_refactorizations_total", "Jacobian refresh+refactorization events across stream time steps.", &m.jacRefactors)
	promtext.WriteCounter(w, "pdeserve_jacobian_reuses_total", "Stream linear solves served by a reused (chord-mode) factorization.", &m.jacReuses)
	promtext.WriteCounter(w, "pdeserve_streams_aborted_total", "Streams that ended before their final frame (cancel, disconnect or step failure).", &m.streamsAborted)
	promtext.WriteGauge(w, "pdeserve_fault_injection_active", "Number of configured fault classes (0 outside chaos mode).", &m.faultsActive)
}
