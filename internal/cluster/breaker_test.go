package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hybridpde/internal/cache"
	"hybridpde/internal/serve"
)

// --- health record, pure unit level ---

// TestHealthStateMachineAtDefaults walks one backend's record through
// every transition at the default Config (threshold 3, open window 2
// sweeps, cap 16), one row at a time on the same record: each row acts,
// then the record's state, its healthy view and both transition counters
// must read as stated. Backend b is a healthy peer throughout.
func TestHealthStateMachineAtDefaults(t *testing.T) {
	var cfg Config
	cfg.defaults()
	ring, err := NewRing([]string{"a", "b"}, DefaultVNodes)
	if err != nil {
		t.Fatal(err)
	}
	g := &Gateway{cfg: cfg, ring: ring, m: newGwMetrics(), budget: newRetryBudget(-1, 1)}
	g.health = newHealth(ring.Members(), cfg.BreakerThreshold, g.m)
	h := g.health
	fail := func(n int) {
		for i := 0; i < n; i++ {
			g.health.observe("a", backendFailed, false)
		}
	}
	// sweeps ticks until a turns half-open and returns how many sweeps
	// that took; a must be probed on that sweep and on no earlier one.
	sweeps := func() int {
		for n := 1; n <= 2*maxOpenSweeps; n++ {
			due := h.tick()
			probed := len(due) == 2
			if h.state("a") == breakerHalfOpen {
				if !probed {
					t.Errorf("a turned half-open but was not probed (due %v)", due)
				}
				return n
			}
			if probed {
				t.Errorf("open a probed on sweep %d (due %v)", n, due)
			}
		}
		t.Fatal("a never turned half-open")
		return 0
	}
	// A shape a owns, so that a walk that tried a first would have to
	// spend the only retry token to reach b.
	var kb cache.KeyBuilder
	var shape cache.Key
	for i := int64(0); ring.Assign(shape) != "a"; i++ {
		kb.Reset()
		kb.I64(1, i)
		shape = kb.Sum()
	}

	rows := []struct {
		name              string
		act               func()
		state             breakerState
		healthy           bool
		evictions, readds uint64
	}{
		{name: "first failure evicts", act: func() { fail(1) },
			state: breakerClosed, evictions: 1},
		{name: "success re-adds", act: func() { g.health.observe("a", backendAnswered, false) },
			state: breakerClosed, healthy: true, evictions: 1, readds: 1},
		{name: "third consecutive failure opens", act: func() {
			fail(2)
			if h.state("a") != breakerClosed {
				t.Error("opened before the third failure")
			}
			fail(1)
		}, state: breakerOpen, evictions: 2, readds: 1},
		{name: "open is skipped by the walk with no token spent", act: func() {
			if order := h.order(ring.Successors(shape)); len(order) != 1 || order[0] != "b" {
				t.Errorf("walk order %v, want only b", order)
			}
			var tried []string
			g.failover(context.Background(), shape, func(url string, _ int) (dispatchResult, outcome, bool) {
				tried = append(tried, url)
				return dispatchResult{status: http.StatusOK}, backendAnswered, false
			})
			if len(tried) != 1 || tried[0] != "b" {
				t.Errorf("walk tried %v, want only b", tried)
			}
			if n := g.m.retryBudgetSpent.Value(); n != 0 || !g.budget.withdraw() {
				t.Errorf("skipping open a spent a token (spent %d)", n)
			}
		}, state: breakerOpen, evictions: 2, readds: 1},
		{name: "half-open after 2 sweeps admits one trial", act: func() {
			if n := sweeps(); n != 2 {
				t.Errorf("half-open after %d sweeps, want 2", n)
			}
			if !admitted(h, "a") || admitted(h, "a") {
				t.Error("half-open a did not admit exactly one trial")
			}
		}, state: breakerHalfOpen, evictions: 2, readds: 1},
		{name: "failed trial doubles the window up to 16", act: func() {
			for i, want := range []int{4, 8, 16, 16} {
				if i == 0 {
					h.observe("a", backendFailed, true) // the trial admitted above
				} else {
					h.probed("a", false) // the sweep's probe is the trial
				}
				if n := sweeps(); n != want {
					t.Errorf("reopened window %d sweeps, want %d", n, want)
				}
			}
		}, state: breakerHalfOpen, evictions: 2, readds: 1},
		{name: "close resets the window to 2", act: func() {
			h.probed("a", true)
			fail(3)
			if n := sweeps(); n != 2 {
				t.Errorf("window after close: %d sweeps, want 2", n)
			}
		}, state: breakerHalfOpen, evictions: 3, readds: 2},
		{name: "not-attributable books nothing and releases the trial", act: func() {
			_, trial := h.allow("a")
			g.health.observe("a", notAttributable, trial)
			if !admitted(h, "a") {
				t.Error("trial slot not released")
			}
		}, state: breakerHalfOpen, evictions: 3, readds: 2},
	}
	for _, row := range rows {
		row.act()
		rows, healthy := h.members()
		a := rows[0]
		if got := h.state("a"); got != row.state || h.healthy("a") != row.healthy {
			t.Errorf("%s: state %v healthy %v, want %v %v", row.name, got, h.healthy("a"), row.state, row.healthy)
		}
		if a.Evictions != row.evictions || a.Readds != row.readds ||
			g.m.evictions.Value() != row.evictions || g.m.readds.Value() != row.readds {
			t.Errorf("%s: evictions %d (metric %d), readds %d (metric %d), want %d, %d", row.name,
				a.Evictions, g.m.evictions.Value(), a.Readds, g.m.readds.Value(), row.evictions, row.readds)
		}
		if wantHealthy := map[bool]int{true: 2, false: 1}[row.healthy]; healthy != wantHealthy || !h.healthy("b") {
			t.Errorf("%s: %d healthy backends, want %d", row.name, healthy, wantHealthy)
		}
	}
}

func TestBreakerOpensAfterThreshold(t *testing.T) {
	h := newHealth([]string{"b"}, 2, newGwMetrics())
	h.observe("b", backendFailed, false)
	if got := h.state("b"); got != breakerClosed {
		t.Fatalf("after 1 failure: state %v, want closed", got)
	}
	h.observe("b", backendFailed, false)
	if got := h.state("b"); got != breakerOpen {
		t.Fatalf("after threshold failures: state %v, want open", got)
	}
	if admitted(h, "b") {
		t.Fatal("open breaker admitted a dispatch")
	}
	var page strings.Builder
	h.m.writeProm(&page)
	if want := `pdegw_breaker_state{backend="b"} 1` + "\n"; !strings.Contains(page.String(), want) {
		t.Fatalf("open breaker's gauge: want %q in\n%s", want, page.String())
	}
}

func TestBreakerSuccessResetsFailStreak(t *testing.T) {
	h := newHealth([]string{"b"}, 2, newGwMetrics())
	h.observe("b", backendFailed, false)
	h.observe("b", backendAnswered, false)
	h.observe("b", backendFailed, false)
	if got := h.state("b"); got != breakerClosed {
		t.Fatalf("interleaved success did not reset the streak: state %v", got)
	}
}

func TestBreakerHalfOpenSingleTrial(t *testing.T) {
	h := newHealth([]string{"b"}, 1, newGwMetrics())
	h.observe("b", backendFailed, false)
	h.tick()
	if got := h.state("b"); got != breakerOpen {
		t.Fatalf("one sweep of two: state %v, want still open", got)
	}
	h.tick()
	if got := h.state("b"); got != breakerHalfOpen {
		t.Fatalf("after openSweeps sweeps: state %v, want half-open", got)
	}
	ok, trial := h.allow("b")
	if !ok || !trial {
		t.Fatal("half-open breaker refused the first trial")
	}
	if admitted(h, "b") {
		t.Fatal("half-open breaker admitted a second concurrent trial")
	}
	h.observe("b", backendAnswered, trial)
	if got := h.state("b"); got != breakerClosed {
		t.Fatalf("successful trial: state %v, want closed", got)
	}
	if !admitted(h, "b") {
		t.Fatal("closed breaker refused a dispatch")
	}
}

// TestHalfOpenTrialHeldAgainstEarlierAttempt: an attempt admitted while
// the breaker was closed that ends not-attributable after the breaker went
// half-open must not free the trial another request holds.
func TestHalfOpenTrialHeldAgainstEarlierAttempt(t *testing.T) {
	h := newHealth([]string{"b"}, 1, newGwMetrics())
	_, early := h.allow("b") // admitted while closed
	h.observe("b", backendFailed, false)
	h.tick()
	h.tick()
	ok, trial := h.allow("b")
	if !ok || !trial {
		t.Fatalf("half-open breaker: allow = %v, %v, want the trial", ok, trial)
	}
	h.observe("b", notAttributable, early)
	if admitted(h, "b") {
		t.Fatal("a closed-era attempt freed the running trial: a second trial got in")
	}
}

// admitted is allow's first result: whether a dispatch may go.
func admitted(h *health, url string) bool {
	ok, _ := h.allow(url)
	return ok
}

func TestBreakerReopenDoublesWindow(t *testing.T) {
	h := newHealth([]string{"b"}, 1, newGwMetrics())
	trial := false // whether the next outcome is a half-open trial's
	fail := func() {
		t.Helper()
		h.observe("b", backendFailed, trial)
		if got := h.state("b"); got != breakerOpen {
			t.Fatalf("state %v, want open", got)
		}
	}
	toHalfOpen := func(wantSweeps int) {
		t.Helper()
		for i := 0; i < wantSweeps; i++ {
			if got := h.state("b"); got != breakerOpen {
				t.Fatalf("sweep %d/%d: state %v, want still open", i, wantSweeps, got)
			}
			h.tick()
		}
		if got := h.state("b"); got != breakerHalfOpen {
			t.Fatalf("after %d sweeps: state %v, want half-open", wantSweeps, got)
		}
		var ok bool
		if ok, trial = h.allow("b"); !ok || !trial {
			t.Fatal("half-open trial refused")
		}
	}
	fail() // open, window 2
	toHalfOpen(2)
	for _, window := range []int{4, 8, 16, 16} { // each failed trial doubles, capped
		fail()
		toHalfOpen(window)
	}
	h.observe("b", backendAnswered, trial)
	trial = false
	// Closing resets the window to base.
	fail()
	toHalfOpen(2)
}

// TestMembershipProbeBackoff: the prober probes closed backends every
// sweep, failed or not, and an open one only on the sweep its window runs
// out; a backend that recovers is probed every sweep again.
func TestMembershipProbeBackoff(t *testing.T) {
	h := newHealth([]string{"a"}, 3, newGwMetrics())
	probed := func() bool { return len(h.tick()) == 1 }
	for i := 0; i < 3; i++ {
		if !probed() {
			t.Fatal("healthy backend skipped a probe sweep")
		}
		h.observe("a", backendFailed, false) // closed until the third failure
	}
	for _, want := range []int{2, 4, 8, 16, 16} {
		got := 1
		for !probed() {
			if got++; got > maxOpenSweeps {
				t.Fatal("probe never came due")
			}
		}
		if got != want {
			t.Fatalf("probed on sweep %d of the open window, want %d", got, want)
		}
		h.probed("a", false) // the half-open probe fails
	}
	for h.state("a") == breakerOpen {
		h.tick()
	}
	h.probed("a", true)
	if !probed() || !probed() {
		t.Fatal("recovered backend skipped a probe sweep")
	}
}

// --- retry budget, pure unit level ---

func TestRetryBudgetStartsFullAndRefills(t *testing.T) {
	rb := newRetryBudget(0.5, 2)
	if !rb.withdraw() || !rb.withdraw() {
		t.Fatal("budget did not start at max")
	}
	if rb.withdraw() {
		t.Fatal("withdraw succeeded on an empty bucket")
	}
	rb.deposit()
	if rb.withdraw() {
		t.Fatal("half a token withdrew")
	}
	rb.deposit()
	if !rb.withdraw() {
		t.Fatal("two deposits at ratio 0.5 did not buy one retry")
	}
}

func TestRetryBudgetZeroRatioNeverRefills(t *testing.T) {
	rb := newRetryBudget(0, 1)
	if !rb.withdraw() {
		t.Fatal("initial token missing")
	}
	for i := 0; i < 10; i++ {
		rb.deposit()
	}
	if rb.withdraw() {
		t.Fatal("zero-ratio budget refilled")
	}
}

// --- gateway-level behaviour ---

// TestGatewayBreakerOpensAndRecloses: a draining backend trips its breaker
// from probe evidence alone, and a restarted one walks open → half-open →
// closed without live traffic having to gamble on it, each step counted in
// pdegw_breaker_transitions_total.
func TestGatewayBreakerOpensAndRecloses(t *testing.T) {
	f := newTestFleet(t, 2, Config{
		ProbeInterval:    20 * time.Millisecond,
		BreakerThreshold: 1,
	})
	url := f.backends[1].URL

	f.servers[1].BeginDrain()
	deadline := time.Now().Add(5 * time.Second)
	for f.gw.health.state(url) == breakerClosed {
		if time.Now().After(deadline) {
			t.Fatal("breaker never opened for the draining backend")
		}
		time.Sleep(5 * time.Millisecond)
	}

	fresh := serve.NewServer(serve.Config{Workers: 1, QueueDepth: 16})
	f.handlers[1].v.Store(fresh.Handler())
	for f.gw.health.state(url) != breakerClosed {
		if time.Now().After(deadline) {
			t.Fatalf("breaker never reclosed after restart (state %v)", f.gw.health.state(url))
		}
		time.Sleep(5 * time.Millisecond)
	}

	page := scrape(t, f.gwServer.URL)
	for _, to := range []string{"open", "half_open", "closed"} {
		series := `pdegw_breaker_transitions_total{backend="` + url + `",to="` + to + `"}`
		if sample(t, page, series) < 1 {
			t.Fatalf("%s not counted:\n%s", series, page)
		}
	}
}

// TestGatewayRetryBudgetDenied: with refill disabled and a one-token
// bucket, the first failover succeeds and the second is refused with 429
// backpressure — never a 5xx. The shape's owner is a zombie: its POSTs fail
// with 503 while its /healthz answers, so the prober re-adds it between
// the requests and the second request tries it first again.
func TestGatewayRetryBudgetDenied(t *testing.T) {
	var zombie string // host of the shape's owner, set once the fleet is up
	f := newTestFleet(t, 2, Config{
		ProbeInterval:    time.Hour, // sweeps only where the test calls probeSweep
		RetryBudgetRatio: -1,        // no refill
		RetryBudgetMax:   1,
		Client: &http.Client{Transport: &scriptedTransport{post: func(r *http.Request) (*http.Response, error) {
			if r.URL.Host == zombie {
				return cannedResponse(http.StatusServiceUnavailable, strings.NewReader("{}")), nil
			}
			return http.DefaultTransport.RoundTrip(r)
		}}},
	})
	req := serve.Request{Problem: serve.KindBurgers2D, N: 5}
	zombie = strings.TrimPrefix(f.backends[f.ownerIndex(t, req)].URL, "http://")

	code, _, err := postGwSolve(f.gwServer.URL, req)
	if err != nil {
		t.Fatal(err)
	}
	if code != http.StatusOK {
		t.Fatalf("first request: status %d, want 200 via failover", code)
	}
	f.gw.probeSweep(context.Background()) // the zombie's /healthz re-adds it

	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(f.gwServer.URL+"/v1/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second request: status %d, want 429 budget denial", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("budget denial carried no Retry-After")
	}

	page := scrape(t, f.gwServer.URL)
	for _, want := range []string{
		"pdegw_retry_budget_spent_total 1",
		"pdegw_retry_budget_denied_total 1",
	} {
		if !strings.Contains(page, want) {
			t.Fatalf("metrics missing %q:\n%s", want, page)
		}
	}
}

// TestGatewayForwardsDeadlineBudget: the gateway tells each backend how
// much of the client's deadline the attempt has left.
func TestGatewayForwardsDeadlineBudget(t *testing.T) {
	s := serve.NewServer(serve.Config{Workers: 1, QueueDepth: 16})
	var got atomic.Value
	inner := s.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/solve" {
			got.Store(r.Header.Get(serve.DeadlineBudgetHeader))
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)

	gw, err := New(Config{Backends: []string{ts.URL}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(gw.Close)
	gws := httptest.NewServer(gw.Handler())
	t.Cleanup(gws.Close)

	code, _, err := postGwSolve(gws.URL, serve.Request{Problem: serve.KindBurgers2D, N: 5, DeadlineMillis: 2000})
	if err != nil {
		t.Fatal(err)
	}
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	raw, _ := got.Load().(string)
	if raw == "" {
		t.Fatalf("backend saw no %s header", serve.DeadlineBudgetHeader)
	}
	ms, err := strconv.ParseInt(raw, 10, 64)
	if err != nil {
		t.Fatalf("unparseable budget %q: %v", raw, err)
	}
	if ms <= 0 || ms > 2000 {
		t.Fatalf("budget %d ms outside (0, 2000]", ms)
	}
}

// TestGatewayBatchAbandoned: a follower whose deadline expires inside the
// batch window leaves promptly, is counted, and its identity group is not
// dispatched upstream when nobody else wants the answer.
func TestGatewayBatchAbandoned(t *testing.T) {
	f := newTestFleet(t, 1, Config{BatchWindow: 400 * time.Millisecond, MaxBatch: 8})

	var wg sync.WaitGroup
	wg.Add(1)
	var leaderCode int
	go func() {
		defer wg.Done()
		leaderCode, _, _ = postGwSolve(f.gwServer.URL, serve.Request{Problem: serve.KindBurgers2D, N: 5})
	}()
	time.Sleep(100 * time.Millisecond) // let the leader open the window

	// Same shape (joins the window), different Re (distinct identity), and
	// a deadline far shorter than the window's remainder.
	start := time.Now()
	code, _, _ := postGwSolve(f.gwServer.URL, serve.Request{
		Problem: serve.KindBurgers2D, N: 5, Re: 80, DeadlineMillis: 50,
	})
	waited := time.Since(start)
	if code != http.StatusGatewayTimeout {
		t.Fatalf("abandoning follower: status %d, want 504", code)
	}
	if waited > 250*time.Millisecond {
		t.Fatalf("follower held its slot %v — not cancelled promptly", waited)
	}
	wg.Wait()
	if leaderCode != http.StatusOK {
		t.Fatalf("leader: status %d", leaderCode)
	}

	page := scrape(t, f.gwServer.URL)
	if !strings.Contains(page, "pdegw_batch_abandoned_total 1") {
		t.Fatalf("abandoned follower not counted:\n%s", page)
	}
	// Only the leader's identity went upstream: the abandoned group's
	// dispatch was skipped entirely.
	routed := 0
	for _, line := range strings.Split(page, "\n") {
		if strings.HasPrefix(line, "pdegw_backend_routed_total{") {
			n, _ := strconv.Atoi(line[strings.LastIndex(line, " ")+1:])
			routed += n
		}
	}
	if routed != 1 {
		t.Fatalf("backend_routed total = %d, want 1 (abandoned identity must not dispatch)", routed)
	}
}
