package cluster

import "sync"

// Per-backend circuit breaking and fleet-wide retry budgeting: the two
// guards that keep the gateway's failover machinery from amplifying a
// brownout into a storm. The breaker stops sending to a backend that keeps
// failing (eviction already stops *routing preference*; the breaker stops
// *attempts*, including failover walks that would otherwise still poke the
// corpse on every request), and the retry budget caps how much failover
// traffic the whole gateway may generate relative to its primary traffic.
//
// Breaker timing is deliberately tick-based, not wall-clock-based: the
// open→half-open countdown is measured in health-prober sweeps, the same
// discrete clock the membership backoff already uses. One clock, one
// cadence, no time.Now — the state machine is a pure function of events
// and ticks, which is what makes it unit-testable and walltime-clean.

// breakerState is a backend's position in the breaker state machine.
//
//	closed ---(threshold consecutive failures)---> open
//	open -----(openTicks prober sweeps elapse)---> half-open
//	half-open --(trial success)--> closed
//	half-open --(trial failure)--> open, window doubled (capped)
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

// gaugeValue is the numeric encoding of the per-backend state gauge:
// 0 closed, 1 open, 2 half-open.
func (s breakerState) gaugeValue() int64 { return int64(s) }

// backendBreaker is one backend's breaker record; all fields are guarded
// by breakerSet.mu.
type backendBreaker struct {
	state breakerState
	// fails counts consecutive failures while closed.
	fails int
	// waitTicks counts down prober sweeps until an open breaker goes
	// half-open.
	waitTicks int
	// openTicks is the current open-window length; it doubles per
	// reopen (capped) and resets on close.
	openTicks int
	// trial is set while a half-open probe/dispatch is outstanding, so
	// only one request at a time tests the backend.
	trial bool
}

// breakerSet owns the breakers of a fixed backend fleet.
type breakerSet struct {
	mu sync.Mutex
	// threshold is how many consecutive failures open a closed breaker.
	threshold int
	// baseTicks is the initial open window, in prober sweeps; maxTicks
	// caps the doubling on repeated reopens.
	baseTicks int
	maxTicks  int
	breakers  map[string]*backendBreaker
	m         *gwMetrics
}

func newBreakerSet(urls []string, threshold, baseTicks, maxTicks int, m *gwMetrics) *breakerSet {
	if threshold < 1 {
		threshold = 1
	}
	if baseTicks < 1 {
		baseTicks = 1
	}
	if maxTicks < baseTicks {
		maxTicks = baseTicks
	}
	bs := &breakerSet{
		threshold: threshold,
		baseTicks: baseTicks,
		maxTicks:  maxTicks,
		breakers:  make(map[string]*backendBreaker, len(urls)),
		m:         m,
	}
	for _, u := range urls {
		bs.breakers[u] = &backendBreaker{openTicks: baseTicks}
		m.breakerState.With(u).Set(0)
	}
	return bs
}

// transition moves one breaker to a new state and accounts it. Callers
// hold bs.mu.
func (bs *breakerSet) transition(url string, b *backendBreaker, to breakerState) {
	b.state = to
	bs.m.breakerState.With(url).Set(to.gaugeValue())
	bs.m.breakerTransitions.With(url, to.String()).Inc()
}

// allow reports whether a dispatch attempt may be sent to the backend. A
// half-open breaker admits exactly one trial at a time; an open breaker
// admits nothing until its countdown elapses.
func (bs *breakerSet) allow(url string) bool {
	bs.mu.Lock()
	defer bs.mu.Unlock()
	b, ok := bs.breakers[url]
	if !ok {
		return true
	}
	switch b.state {
	case breakerOpen:
		return false
	case breakerHalfOpen:
		if b.trial {
			return false
		}
		b.trial = true
		return true
	default:
		return true
	}
}

// record feeds one observed outcome — a dispatch result or a health-probe
// result — into the state machine. Probe outcomes flow through the same
// method as dispatch outcomes, so a recovered backend closes its breaker
// without waiting for live traffic to gamble on it.
func (bs *breakerSet) record(url string, ok bool) {
	bs.mu.Lock()
	defer bs.mu.Unlock()
	b, found := bs.breakers[url]
	if !found {
		return
	}
	if ok {
		b.fails = 0
		if b.state == breakerHalfOpen {
			b.trial = false
			b.openTicks = bs.baseTicks
			bs.transition(url, b, breakerClosed)
		}
		return
	}
	switch b.state {
	case breakerClosed:
		b.fails++
		if b.fails >= bs.threshold {
			b.waitTicks = b.openTicks
			bs.transition(url, b, breakerOpen)
		}
	case breakerHalfOpen:
		// The trial failed: reopen with a doubled (capped) window.
		b.trial = false
		b.openTicks *= 2
		if b.openTicks > bs.maxTicks {
			b.openTicks = bs.maxTicks
		}
		b.waitTicks = b.openTicks
		bs.transition(url, b, breakerOpen)
	}
}

// release hands back a half-open trial slot without a verdict: the attempt
// that took it ended for reasons that say nothing about the backend (the
// client's deadline or disconnect), so the state stays half-open and the
// next request may run the trial.
func (bs *breakerSet) release(url string) {
	bs.mu.Lock()
	defer bs.mu.Unlock()
	if b, ok := bs.breakers[url]; ok && b.state == breakerHalfOpen {
		b.trial = false
	}
}

// tick advances every open breaker's countdown by one prober sweep; those
// reaching zero go half-open. The gateway calls it from probeSweep, so the
// breaker and the membership backoff share one discrete clock.
func (bs *breakerSet) tick() {
	bs.mu.Lock()
	defer bs.mu.Unlock()
	for url, b := range bs.breakers {
		if b.state != breakerOpen {
			continue
		}
		if b.waitTicks > 0 {
			b.waitTicks--
		}
		if b.waitTicks == 0 {
			b.trial = false
			bs.transition(url, b, breakerHalfOpen)
		}
	}
}

// state returns a breaker's current state (for tests and /cluster).
func (bs *breakerSet) state(url string) breakerState {
	bs.mu.Lock()
	defer bs.mu.Unlock()
	if b, ok := bs.breakers[url]; ok {
		return b.state
	}
	return breakerClosed
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
