package cluster

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hybridpde/internal/serve"
)

// --- breaker state machine, pure unit level ---

func TestBreakerOpensAfterThreshold(t *testing.T) {
	bs := newBreakerSet([]string{"b"}, 2, 2, 8, newGwMetrics())
	bs.record("b", false)
	if got := bs.state("b"); got != breakerClosed {
		t.Fatalf("after 1 failure: state %v, want closed", got)
	}
	bs.record("b", false)
	if got := bs.state("b"); got != breakerOpen {
		t.Fatalf("after threshold failures: state %v, want open", got)
	}
	if bs.allow("b") {
		t.Fatal("open breaker admitted a dispatch")
	}
	var page strings.Builder
	bs.m.writeProm(&page)
	if want := `pdegw_breaker_state{backend="b"} 1` + "\n"; !strings.Contains(page.String(), want) {
		t.Fatalf("open breaker's gauge: want %q in\n%s", want, page.String())
	}
}

func TestBreakerSuccessResetsFailStreak(t *testing.T) {
	bs := newBreakerSet([]string{"b"}, 2, 2, 8, newGwMetrics())
	bs.record("b", false)
	bs.record("b", true)
	bs.record("b", false)
	if got := bs.state("b"); got != breakerClosed {
		t.Fatalf("interleaved success did not reset the streak: state %v", got)
	}
}

func TestBreakerHalfOpenSingleTrial(t *testing.T) {
	bs := newBreakerSet([]string{"b"}, 1, 2, 8, newGwMetrics())
	bs.record("b", false)
	bs.tick()
	if got := bs.state("b"); got != breakerOpen {
		t.Fatalf("one tick of two: state %v, want still open", got)
	}
	bs.tick()
	if got := bs.state("b"); got != breakerHalfOpen {
		t.Fatalf("after openTicks sweeps: state %v, want half-open", got)
	}
	if !bs.allow("b") {
		t.Fatal("half-open breaker refused the first trial")
	}
	if bs.allow("b") {
		t.Fatal("half-open breaker admitted a second concurrent trial")
	}
	bs.record("b", true)
	if got := bs.state("b"); got != breakerClosed {
		t.Fatalf("successful trial: state %v, want closed", got)
	}
	if !bs.allow("b") {
		t.Fatal("closed breaker refused a dispatch")
	}
}

func TestBreakerReopenDoublesWindow(t *testing.T) {
	bs := newBreakerSet([]string{"b"}, 1, 1, 4, newGwMetrics())
	fail := func() {
		t.Helper()
		bs.record("b", false)
		if got := bs.state("b"); got != breakerOpen {
			t.Fatalf("state %v, want open", got)
		}
	}
	toHalfOpen := func(wantTicks int) {
		t.Helper()
		for i := 0; i < wantTicks; i++ {
			if got := bs.state("b"); got != breakerOpen {
				t.Fatalf("tick %d/%d: state %v, want still open", i, wantTicks, got)
			}
			bs.tick()
		}
		if got := bs.state("b"); got != breakerHalfOpen {
			t.Fatalf("after %d ticks: state %v, want half-open", wantTicks, got)
		}
		if !bs.allow("b") {
			t.Fatal("half-open trial refused")
		}
	}
	fail()        // open, window 1
	toHalfOpen(1) //
	fail()        // reopen, window 2
	toHalfOpen(2) //
	fail()        // reopen, window 4 (cap)
	toHalfOpen(4) //
	fail()        // reopen, window stays 4
	toHalfOpen(4) //
	bs.record("b", true)
	// Closing resets the window to base.
	bs.record("b", false)
	toHalfOpen(1)
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
// closed without live traffic having to gamble on it.
func TestGatewayBreakerOpensAndRecloses(t *testing.T) {
	f := newTestFleet(t, 2, Config{
		ProbeInterval:     20 * time.Millisecond,
		BreakerThreshold:  1,
		BreakerOpenProbes: 1,
	})
	url := f.backends[1].URL

	f.servers[1].BeginDrain()
	deadline := time.Now().Add(5 * time.Second)
	for f.gw.breakers.state(url) == breakerClosed {
		if time.Now().After(deadline) {
			t.Fatal("breaker never opened for the draining backend")
		}
		time.Sleep(5 * time.Millisecond)
	}

	fresh := serve.NewServer(serve.Config{Workers: 1, QueueDepth: 16})
	f.handlers[1].v.Store(fresh.Handler())
	for f.gw.breakers.state(url) != breakerClosed {
		if time.Now().After(deadline) {
			t.Fatalf("breaker never reclosed after restart (state %v)", f.gw.breakers.state(url))
		}
		time.Sleep(5 * time.Millisecond)
	}

	page := scrape(t, f.gwServer.URL)
	for _, want := range []string{`to="open"`, `to="half_open"`, `to="closed"`} {
		if !strings.Contains(page, want) {
			t.Fatalf("metrics missing breaker transition %s:\n%s", want, page)
		}
	}
}

// TestGatewayRetryBudgetDenied: with refill disabled and a one-token
// bucket, the first failover succeeds and the second is refused with 429
// backpressure — never a 5xx.
func TestGatewayRetryBudgetDenied(t *testing.T) {
	f := newTestFleet(t, 2, Config{
		ProbeInterval:    time.Hour, // dispatch path only
		EvictAfter:       1 << 30,   // keep the dead backend "healthy" so every request retries it
		BreakerThreshold: 1 << 30,   // keep its breaker closed for the same reason
		RetryBudgetRatio: -1,        // no refill
		RetryBudgetMax:   1,
	})
	req := serve.Request{Problem: serve.KindBurgers2D, N: 5}
	f.backends[f.ownerIndex(t, req)].Close()

	code, _, err := postGwSolve(f.gwServer.URL, req)
	if err != nil {
		t.Fatal(err)
	}
	if code != http.StatusOK {
		t.Fatalf("first request after kill: status %d, want 200 via failover", code)
	}

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
