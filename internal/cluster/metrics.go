package cluster

import (
	"io"

	"hybridpde/internal/promtext"
)

// gwMetrics is the gateway's fixed metric set, rendered in the same
// Prometheus text exposition the backends use (internal/promtext) so one
// scraper walks the whole fleet.
type gwMetrics struct {
	requests        *promtext.CounterVec // labels: code — gateway-level final status
	backendRouted   *promtext.CounterVec // labels: backend — upstream requests sent
	backendRequests *promtext.CounterVec // labels: backend, code — upstream responses
	backendFailures *promtext.CounterVec // labels: backend — transport errors + failover-class statuses
	backendInflight *promtext.GaugeVec   // labels: backend — upstream requests in flight
	failovers       promtext.Counter     // requests retried on a ring successor
	evictions       promtext.Counter     // healthy→unhealthy transitions
	readds          promtext.Counter     // unhealthy→healthy transitions

	// Failure-isolation plane: per-backend circuit breakers and the
	// fleet-wide retry budget.
	breakerState       *promtext.GaugeVec   // labels: backend — 0 closed, 1 open, 2 half-open
	breakerTransitions *promtext.CounterVec // labels: backend, to — state transitions
	retryBudgetSpent   promtext.Counter     // failover attempts paid for by the budget
	retryBudgetDenied  promtext.Counter     // failovers refused (429) on an empty budget
	healthyBackends    promtext.Gauge       // members currently receiving traffic
	draining           promtext.Gauge       // 1 while the gateway refuses new work
	inflight           promtext.Gauge       // requests inside the gateway

	// Batching plane.
	batches        promtext.Counter    // windows flushed (or direct dispatches)
	batchSize      *promtext.Histogram // requests per flushed window
	batchDeduped   promtext.Counter    // requests served by another identical upstream call
	batchAbandoned promtext.Counter    // followers whose client hung up before the flush

	// Streaming plane (POST /v1/stream flush-through proxy).
	streamsProxied  promtext.Counter // streams committed (200) to a backend
	streamFrames    promtext.Counter // NDJSON lines relayed and flushed
	streamFailovers promtext.Counter // stream attempts retried before the first byte
	streamAborts    promtext.Counter // committed streams truncated (client gone or upstream failure)
}

func newGwMetrics() *gwMetrics {
	return &gwMetrics{
		requests:           promtext.NewCounterVec("code"),
		backendRouted:      promtext.NewCounterVec("backend"),
		backendRequests:    promtext.NewCounterVec("backend", "code"),
		backendFailures:    promtext.NewCounterVec("backend"),
		backendInflight:    promtext.NewGaugeVec("backend"),
		breakerState:       promtext.NewGaugeVec("backend"),
		breakerTransitions: promtext.NewCounterVec("backend", "to"),
		// Window sizes are small by design; 1 means batching bought nothing.
		batchSize: promtext.NewHistogram(1, 2, 4, 8, 16, 32),
	}
}

// writeProm renders the exposition page. Families appear in a fixed order
// and labelled children in sorted order, so scrapes are deterministic.
func (m *gwMetrics) writeProm(w io.Writer) {
	promtext.WriteCounterVec(w, "pdegw_requests_total", "Gateway requests by final HTTP status code.", m.requests)
	promtext.WriteCounterVec(w, "pdegw_backend_routed_total", "Upstream solve requests sent, by backend.", m.backendRouted)
	promtext.WriteCounterVec(w, "pdegw_backend_requests_total", "Upstream responses received, by backend and HTTP status code.", m.backendRequests)
	promtext.WriteCounterVec(w, "pdegw_backend_failures_total", "Upstream transport errors and failover-class statuses, by backend.", m.backendFailures)
	promtext.WriteGaugeVec(w, "pdegw_backend_inflight", "Upstream requests currently in flight, by backend.", m.backendInflight)
	promtext.WriteCounter(w, "pdegw_failovers_total", "Requests retried on the next ring successor after a backend failure.", &m.failovers)
	promtext.WriteGaugeVec(w, "pdegw_breaker_state", "Per-backend circuit-breaker state: 0 closed, 1 open, 2 half-open.", m.breakerState)
	promtext.WriteCounterVec(w, "pdegw_breaker_transitions_total", "Circuit-breaker state transitions, by backend and target state.", m.breakerTransitions)
	promtext.WriteCounter(w, "pdegw_retry_budget_spent_total", "Failover attempts paid for by the retry budget.", &m.retryBudgetSpent)
	promtext.WriteCounter(w, "pdegw_retry_budget_denied_total", "Failover attempts refused with 429 because the retry budget was exhausted.", &m.retryBudgetDenied)
	promtext.WriteCounter(w, "pdegw_evictions_total", "Backend transitions from healthy to evicted (a failure since the last success, or an open breaker).", &m.evictions)
	promtext.WriteCounter(w, "pdegw_readds_total", "Backend transitions from evicted back to healthy (a success with the breaker closed).", &m.readds)
	promtext.WriteGauge(w, "pdegw_healthy_backends", "Backends currently receiving routed traffic.", &m.healthyBackends)
	promtext.WriteGauge(w, "pdegw_draining", "1 while the gateway is draining and refusing new work.", &m.draining)
	promtext.WriteGauge(w, "pdegw_inflight_requests", "Requests currently inside the gateway.", &m.inflight)
	promtext.WriteCounter(w, "pdegw_batches_total", "Same-shape windows flushed (a direct dispatch counts as a window of one).", &m.batches)
	promtext.WriteHistogram(w, "pdegw_batch_size", "Requests per flushed same-shape window.", m.batchSize)
	promtext.WriteCounter(w, "pdegw_batch_deduped_total", "Requests served by another identical in-batch upstream call.", &m.batchDeduped)
	promtext.WriteCounter(w, "pdegw_batch_abandoned_total", "Batch followers whose client disconnected before the window flushed.", &m.batchAbandoned)
	promtext.WriteCounter(w, "pdegw_streams_proxied_total", "Streams committed to a backend and relayed flush-on-write.", &m.streamsProxied)
	promtext.WriteCounter(w, "pdegw_stream_frames_total", "NDJSON stream lines relayed and flushed to clients.", &m.streamFrames)
	promtext.WriteCounter(w, "pdegw_stream_failovers_total", "Stream attempts retried on a ring successor before the first byte.", &m.streamFailovers)
	promtext.WriteCounter(w, "pdegw_stream_aborts_total", "Committed streams truncated by a client disconnect or upstream failure.", &m.streamAborts)
}
