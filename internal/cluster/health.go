package cluster

import (
	"context"
	"io"
	"net/http"
	"sync"
)

// Per-backend health and fleet-wide retry budgeting: the two guards that
// keep the gateway's failover machinery from amplifying a brownout into a
// storm. Each backend has one health record, a circuit breaker that stops
// attempts at a backend that keeps failing (including failover walks that
// would otherwise poke the corpse on every request); "healthy", which
// orders the walk and answers readiness, is a view on that breaker. The
// retry budget caps how much failover traffic the whole gateway may
// generate relative to its primary traffic.
//
// Timing is counted in health-prober sweeps, not wall-clock time: the
// state machine is a pure function of outcomes and sweeps, which is what
// makes it unit-testable and walltime-clean.

// breakerState is a backend's position in the breaker state machine.
//
//	closed ---(threshold consecutive failures)-----> open
//	open -----(its window of prober sweeps elapses)-> half-open
//	half-open --(trial success)--> closed, window reset to openSweeps
//	half-open --(trial failure)--> open, window doubled up to maxOpenSweeps
//
// The trial is the one dispatch allow admits while half-open, or the
// sweep's probe while no dispatch holds that slot; any other outcome
// leaves a half-open breaker as it is.
//
// The ring never changes: an unhealthy backend keeps its ring positions,
// so its shapes come straight back to its warm cache when it recovers.
type breakerState int

const (
	breakerClosed breakerState = iota
	breakerOpen
	breakerHalfOpen
)

// String renders the state for metrics label values and logs.
func (s breakerState) String() string {
	switch s {
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half_open"
	default:
		return "closed"
	}
}

const (
	// openSweeps is a freshly opened breaker's window, in prober sweeps;
	// each failed half-open trial doubles it up to maxOpenSweeps.
	openSweeps    = 2
	maxOpenSweeps = 16
)

// backend is one backend's health record; all fields are guarded by
// health.mu.
type backend struct {
	state breakerState
	// fails counts consecutive failures since the last success.
	fails int
	// window is the current open window and wait the sweeps left of it.
	window, wait int
	// trial is set while a half-open dispatch is outstanding, so only one
	// request at a time tests the backend.
	trial bool
	// evictions and readds count healthy → unhealthy and back.
	evictions, readds uint64
}

// healthy is the view routing, readiness and /cluster read: closed, with
// no failure since the last success.
func (b *backend) healthy() bool { return b.state == breakerClosed && b.fails == 0 }

// Failover walk tiers, in the order health.order lists them; open
// backends are not candidates.
const (
	tierHealthy = iota
	tierClosed
	tierHalfOpen
	tierOpen
)

func (b *backend) tier() int {
	switch {
	case b.healthy():
		return tierHealthy
	case b.state == breakerClosed:
		return tierClosed
	case b.state == breakerHalfOpen:
		return tierHalfOpen
	}
	return tierOpen
}

// health owns the records of a fixed backend fleet.
type health struct {
	mu sync.Mutex
	// threshold is how many consecutive failures open a closed breaker.
	threshold int
	urls      []string // the fleet in ring-member order
	backends  map[string]*backend
	m         *gwMetrics
}

func newHealth(urls []string, threshold int, m *gwMetrics) *health {
	h := &health{threshold: threshold, urls: urls, backends: make(map[string]*backend, len(urls)), m: m}
	for _, u := range urls {
		h.backends[u] = &backend{window: openSweeps}
		m.breakerState.With(u).Set(int64(breakerClosed))
	}
	return h
}

// transition moves one breaker to a new state and accounts it. Callers
// hold h.mu.
func (h *health) transition(url string, b *backend, to breakerState) {
	b.state = to
	h.m.breakerState.With(url).Set(int64(to))
	h.m.breakerTransitions.With(url, to.String()).Inc()
}

// observe books a dispatch attempt's outcome. trial is allow's second
// result: whether the attempt holds the half-open trial slot. A half-open
// breaker moves only on its trial's outcome (or on a probe, see probed).
// An attempt admitted while the breaker was still closed books nothing
// there, failure or success: it reports on the backend from before the
// failures that opened the breaker, and booking it would reopen the
// breaker and double its window while the trial runs (a stale failure), or
// close it before the trial answers (a stale success). A not-attributable
// outcome books nothing and only hands back the trial slot.
func (h *health) observe(url string, o outcome, trial bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	b := h.backends[url]
	if b.state == breakerHalfOpen && !trial {
		return
	}
	h.book(url, b, o)
}

// probed books a health probe's answer. The probe a sweep sends to a
// backend it has just turned half-open is that sweep's own trial: it moves
// the breaker like a trial's outcome, unless a dispatch holds the trial
// slot, whose outcome then decides. Letting the probe move the breaker
// under a running trial could reopen it and, two sweeps on, admit a
// second trial while the first is still out.
func (h *health) probed(url string, ready bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	b := h.backends[url]
	if b.state == breakerHalfOpen && b.trial {
		return
	}
	o := backendFailed
	if ready {
		o = backendAnswered
	}
	h.book(url, b, o)
}

// book moves one breaker on an outcome allowed to move it. Callers hold
// h.mu. The trial slot is held only while the breaker is half-open, so an
// outcome that leaves half-open, or a not-attributable one, frees it.
func (h *health) book(url string, b *backend, o outcome) {
	wasHealthy := b.healthy()
	switch {
	case o == notAttributable:
		b.trial = false
	case o == backendAnswered:
		b.fails = 0
		if b.state == breakerHalfOpen {
			b.trial = false
			b.window = openSweeps
			h.transition(url, b, breakerClosed)
		}
	case b.state == breakerClosed:
		b.fails++
		if b.fails >= h.threshold {
			b.wait = b.window
			h.transition(url, b, breakerOpen)
		}
	case b.state == breakerHalfOpen:
		b.trial = false
		b.window = min(2*b.window, maxOpenSweeps)
		b.wait = b.window
		h.transition(url, b, breakerOpen)
	}
	switch isHealthy := b.healthy(); {
	case wasHealthy && !isHealthy:
		b.evictions++
		h.m.evictions.Inc()
	case !wasHealthy && isHealthy:
		b.readds++
		h.m.readds.Inc()
	}
}

// allow reports whether a dispatch attempt may be sent to the backend,
// and whether that attempt took the half-open trial slot. A half-open
// breaker admits exactly one trial at a time; an open one admits nothing
// until its window elapses.
func (h *health) allow(url string) (ok, trial bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	b := h.backends[url]
	switch b.state {
	case breakerOpen:
		return false, false
	case breakerHalfOpen:
		if b.trial {
			return false, false
		}
		b.trial = true
		return true, true
	}
	return true, false
}

// tick advances the clock by one prober sweep: open breakers whose window
// elapses go half-open. It returns the backends due for a probe this
// sweep, every one that is not open: closed backends are probed every
// sweep and an open one on the sweep it turns half-open (see probed).
func (h *health) tick() []string {
	h.mu.Lock()
	defer h.mu.Unlock()
	due := make([]string, 0, len(h.urls))
	for _, url := range h.urls {
		b := h.backends[url]
		if b.state == breakerOpen {
			if b.wait--; b.wait > 0 {
				continue
			}
			h.transition(url, b, breakerHalfOpen)
		}
		due = append(due, url)
	}
	return due
}

// order sorts ring successors into the failover walk's tiers under one
// lock: healthy backends first; then the other closed ones, as last resort,
// because probe state is advisory and the request is the ground truth;
// then half-open trials. Open backends are left out. Each tier keeps ring
// order.
func (h *health) order(succ []string) []string {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]string, 0, len(succ))
	for tier := tierHealthy; tier < tierOpen; tier++ {
		for _, url := range succ {
			if h.backends[url].tier() == tier {
				out = append(out, url)
			}
		}
	}
	return out
}

// healthy reports whether a backend is in the healthy view.
func (h *health) healthy(url string) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.backends[url].healthy()
}

// members returns the /cluster rows, in ring-member order, and how many
// backends are healthy.
func (h *health) members() ([]ClusterMember, int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	rows := make([]ClusterMember, 0, len(h.urls))
	n := 0
	for _, url := range h.urls {
		b := h.backends[url]
		state := "evicted"
		if b.healthy() {
			state = "healthy"
			n++
		}
		rows = append(rows, ClusterMember{URL: url, State: state, Evictions: b.evictions, Readds: b.readds})
	}
	return rows, n
}

// state returns a backend's breaker state.
func (h *health) state(url string) breakerState {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.backends[url].state
}

// probeBackend checks one backend's readiness: GET /healthz must answer
// 200. Any transport error or non-200 — including the 503 a draining
// backend reports — counts as not ready.
func probeBackend(ctx context.Context, client *http.Client, url string) bool {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := client.Do(req)
	if err != nil {
		return false
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// retryBudget is a token bucket capping failover retries at a fraction of
// primary traffic (the Finagle/Envoy retry-budget discipline): every
// primary dispatch deposits ratio tokens (bounded by max), every failover
// attempt beyond a request's first withdraws one. When the bucket is
// empty the failover is *denied* — the gateway answers 429 backpressure
// rather than letting retries multiply load on a browning-out fleet.
type retryBudget struct {
	mu     sync.Mutex
	tokens float64
	ratio  float64
	max    float64
}

// newRetryBudget builds a bucket that starts full, so an isolated failure
// right after boot can still fail over.
func newRetryBudget(ratio, max float64) *retryBudget {
	if max < 1 {
		max = 1
	}
	if ratio < 0 {
		ratio = 0
	}
	return &retryBudget{tokens: max, ratio: ratio, max: max}
}

// deposit credits one primary dispatch.
func (rb *retryBudget) deposit() {
	rb.mu.Lock()
	defer rb.mu.Unlock()
	rb.tokens += rb.ratio
	if rb.tokens > rb.max {
		rb.tokens = rb.max
	}
}

// withdraw spends one retry token; false means the budget is exhausted and
// the failover must not happen.
func (rb *retryBudget) withdraw() bool {
	rb.mu.Lock()
	defer rb.mu.Unlock()
	if rb.tokens < 1 {
		return false
	}
	rb.tokens--
	return true
}
