package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

const testNetlist = `# 1-variable Newton slice
inst d0 dac 0
inst m0 multiplier 0
inst i0 integrator 0
set  d0 0.5
wire d0.out m0.in0
wire m0.out i0.in
commit
start
stop
`

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := NewServer(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// trySolve posts a solve request without failing the test; safe to call
// from non-test goroutines (t.Fatal is not).
func trySolve(url string, req Request) (int, Response, http.Header, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return 0, Response{}, nil, err
	}
	hr, err := http.Post(url+"/v1/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, Response{}, nil, err
	}
	defer hr.Body.Close()
	var resp Response
	if err := json.NewDecoder(hr.Body).Decode(&resp); err != nil {
		return hr.StatusCode, Response{}, hr.Header, err
	}
	return hr.StatusCode, resp, hr.Header, nil
}

func postSolve(t *testing.T, url string, req Request) (int, Response, http.Header) {
	t.Helper()
	code, resp, hdr, err := trySolve(url, req)
	if err != nil {
		t.Fatal(err)
	}
	return code, resp, hdr
}

func TestSolveRoundtripAllKinds(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	cases := []Request{
		{Problem: KindBurgers2D, N: 4, Seed: 3},
		{Problem: KindBurgersSteady, N: 4, Seed: 3},
		{Problem: KindBurgers1D, N: 32, Seed: 3},
	}
	for _, req := range cases {
		code, resp, _ := postSolve(t, ts.URL, req)
		if code != http.StatusOK {
			t.Fatalf("%s: status %d, error %q", req.Problem, code, resp.Error)
		}
		if !resp.Converged {
			t.Fatalf("%s: solve did not converge (residual %g)", req.Problem, resp.Residual)
		}
		if resp.Residual >= 1e-9 {
			t.Fatalf("%s: residual %g too large", req.Problem, resp.Residual)
		}
		if resp.Dim == 0 || resp.Iterations == 0 || resp.ModelSeconds <= 0 {
			t.Fatalf("%s: report incomplete: %+v", req.Problem, resp)
		}
	}

	code, resp, _ := postSolve(t, ts.URL, Request{Problem: KindNetlist, Netlist: testNetlist})
	if code != http.StatusOK {
		t.Fatalf("netlist: status %d, error %q", code, resp.Error)
	}
	if resp.Components != 3 || resp.Connections != 2 || !resp.Committed || resp.Running {
		t.Fatalf("netlist report wrong: %+v", resp)
	}
}

// TestSolveDeterminism is the registry contract: identical requests produce
// bit-identical solves, whichever worker serves them.
func TestSolveDeterminism(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	req := Request{Problem: KindBurgersSteady, N: 5, Seed: 99}
	_, first, _ := postSolve(t, ts.URL, req)
	for i := 0; i < 3; i++ {
		_, again, _ := postSolve(t, ts.URL, req)
		if again.Residual != first.Residual || again.Iterations != first.Iterations {
			t.Fatalf("nondeterministic solve: %+v vs %+v", first, again)
		}
	}
	_, other, _ := postSolve(t, ts.URL, Request{Problem: KindBurgersSteady, N: 5, Seed: 100})
	if other.Residual == first.Residual {
		t.Fatal("different seeds produced identical residuals")
	}
}

func TestSolveValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, MaxGridN: 8})
	cases := []struct {
		name string
		body string
		code int
	}{
		{"unknown kind", `{"problem":"heat3d"}`, http.StatusBadRequest},
		{"missing kind", `{}`, http.StatusBadRequest},
		{"oversize grid", `{"problem":"burgers2d","n":99}`, http.StatusBadRequest},
		{"bad order", `{"problem":"burgers2d","order":3}`, http.StatusBadRequest},
		{"negative re", `{"problem":"burgers1d","re":-2}`, http.StatusBadRequest},
		{"empty netlist", `{"problem":"netlist"}`, http.StatusBadRequest},
		{"analog_vars without analog", `{"problem":"burgers2d","analog_vars":8}`, http.StatusBadRequest},
		{"bad backend", `{"problem":"burgers2d","backend":"tpu"}`, http.StatusBadRequest},
		{"netlist parse error", `{"problem":"netlist","netlist":"frob a b"}`, http.StatusUnprocessableEntity},
	}
	for _, tc := range cases {
		hr, err := http.Post(ts.URL+"/v1/solve", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(hr.Body)
		hr.Body.Close()
		if hr.StatusCode != tc.code {
			t.Fatalf("%s: status %d (want %d): %s", tc.name, hr.StatusCode, tc.code, b)
		}
	}
}

// TestBackpressure starves the worker pool directly (the test is
// in-package), fills the queue, and asserts the next request sheds with 429
// and a Retry-After hint — never blocking, exactly at the configured bound.
func TestBackpressure(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	wk := <-s.workers // starve the pool: nothing can execute

	req := Request{Problem: KindBurgers1D, N: 8}
	results := make(chan int, 2)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ { // fill both slots (1 worker + 1 queue)
		wg.Add(1)
		go func() {
			defer wg.Done()
			code, _, _, err := trySolve(ts.URL, req)
			if err != nil {
				t.Error(err)
			}
			results <- code
		}()
	}
	// Wait until both requests hold queue slots.
	deadline := time.After(5 * time.Second)
	for len(s.queueSlots) != 2 {
		select {
		case <-deadline:
			t.Fatal("queued requests never claimed their slots")
		case <-time.After(time.Millisecond):
		}
	}

	code, _, hdr := postSolve(t, ts.URL, req)
	if code != http.StatusTooManyRequests {
		t.Fatalf("saturated service returned %d, want 429", code)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("429 response missing Retry-After")
	}
	if got := s.m.queueRejects.Value(); got != 1 {
		t.Fatalf("queue_rejects_total = %d, want 1", got)
	}

	s.workers <- wk // release the pool; both queued requests must complete
	wg.Wait()
	for i := 0; i < 2; i++ {
		if code := <-results; code != http.StatusOK {
			t.Fatalf("queued request finished with %d, want 200", code)
		}
	}
}

// TestDeadlineWhileQueued pins the per-request deadline contract: a request
// whose deadline expires while it waits for a worker gets 504, not a hang.
func TestDeadlineWhileQueued(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	wk := <-s.workers
	defer func() { s.workers <- wk }()

	code, resp, _ := postSolve(t, ts.URL, Request{Problem: KindBurgers1D, N: 8, DeadlineMillis: 50})
	if code != http.StatusGatewayTimeout {
		t.Fatalf("queued-past-deadline request returned %d (%q), want 504", code, resp.Error)
	}
}

// TestDrain covers the graceful-shutdown contract: draining sheds new work
// with 503, flips /healthz, completes requests already admitted, and Drain
// returns once they finish.
func TestDrain(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 2})
	wk := <-s.workers // hold the queued request in the queue

	done := make(chan int, 1)
	go func() {
		code, _, _, err := trySolve(ts.URL, Request{Problem: KindBurgers1D, N: 8})
		if err != nil {
			t.Error(err)
		}
		done <- code
	}()
	deadline := time.After(5 * time.Second)
	for len(s.queueSlots) != 1 {
		select {
		case <-deadline:
			t.Fatal("request never claimed its queue slot")
		case <-time.After(time.Millisecond):
		}
	}

	s.BeginDrain()
	if code, _, _ := postSolve(t, ts.URL, Request{Problem: KindBurgers1D, N: 8}); code != http.StatusServiceUnavailable {
		t.Fatalf("draining service admitted a request: %d", code)
	}
	hr, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if hr.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining /healthz = %d, want 503", hr.StatusCode)
	}

	s.workers <- wk // let the admitted request finish
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if code := <-done; code != http.StatusOK {
		t.Fatalf("in-flight request finished with %d during drain, want 200", code)
	}
}

// TestAnalogSeededSolve runs the paper's full pipeline through the service:
// a problem that fits the prototype directly, and an oversize one forced
// through red-black decomposition by capping analog_vars.
func TestAnalogSeededSolve(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})

	code, resp, _ := postSolve(t, ts.URL, Request{Problem: KindBurgers2D, N: 2, Seed: 5, Analog: true})
	if code != http.StatusOK {
		t.Fatalf("direct analog solve: status %d, error %q", code, resp.Error)
	}
	if !resp.AnalogUsed || resp.Decomposed {
		t.Fatalf("expected direct analog seeding: %+v", resp)
	}
	if resp.SeedResidual <= 0 {
		t.Fatalf("seed residual not reported: %+v", resp)
	}

	// n=4 (32 unknowns) with an 8-variable accelerator: decomposes into
	// 2×2-node tiles on the red-black checkerboard.
	code, resp, _ = postSolve(t, ts.URL, Request{Problem: KindBurgers2D, N: 4, Seed: 5, Analog: true, AnalogVars: 8, DeadlineMillis: 25000})
	if code != http.StatusOK {
		t.Fatalf("decomposed analog solve: status %d, error %q", code, resp.Error)
	}
	if !resp.Decomposed || resp.Subproblems == 0 || resp.GSSweeps == 0 {
		t.Fatalf("expected red-black decomposition: %+v", resp)
	}
	if !resp.Converged {
		t.Fatalf("decomposed solve did not converge: %+v", resp)
	}
}

// TestAnalogSeedCounters: an analog-seeded solve moves the seed counters by
// one (accepted never above total); a digital solve moves neither.
func TestAnalogSeedCounters(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	seeds := func() (total, accepted uint64) {
		page := scrapeMetrics(t, ts)
		return counterValue(t, page, "pdeserve_analog_seeds_total"),
			counterValue(t, page, "pdeserve_analog_seeds_accepted_total")
	}

	if code, resp, _ := postSolve(t, ts.URL, Request{Problem: KindBurgers2D, N: 2, Seed: 5}); code != http.StatusOK {
		t.Fatalf("digital solve: status %d, error %q", code, resp.Error)
	}
	if total, accepted := seeds(); total != 0 || accepted != 0 {
		t.Fatalf("digital solve moved the seed counters: total %d, accepted %d", total, accepted)
	}

	if code, resp, _ := postSolve(t, ts.URL, Request{Problem: KindBurgers2D, N: 2, Seed: 5, Analog: true}); code != http.StatusOK || !resp.AnalogUsed {
		t.Fatalf("analog solve: status %d, analog used %v, error %q", code, resp.AnalogUsed, resp.Error)
	}
	if total, accepted := seeds(); total != 1 || accepted > total {
		t.Fatalf("after one seeded solve: total %d, accepted %d; want total 1, accepted ≤ total", total, accepted)
	}
}

// counterValue reads an unlabelled counter's sample off a /metrics page.
func counterValue(t *testing.T, page, name string) uint64 {
	t.Helper()
	for _, line := range strings.Split(page, "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			n, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			return n
		}
	}
	t.Fatalf("%s missing from /metrics", name)
	return 0
}

func TestProblemsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, MaxGridN: 10})
	hr, err := http.Get(ts.URL + "/v1/problems")
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	var kinds []KindInfo
	if err := json.NewDecoder(hr.Body).Decode(&kinds); err != nil {
		t.Fatal(err)
	}
	if len(kinds) != 4 {
		t.Fatalf("got %d kinds, want 4", len(kinds))
	}
	if kinds[0].MaxN != 10 {
		t.Fatalf("MaxN not propagated from config: %+v", kinds[0])
	}
}

// TestServerSteadyPathZeroAlloc pins the tentpole's allocation contract:
// once a worker has served one request of a shape, further same-shaped
// solves through worker.run allocate nothing (the HTTP layer above it
// allocates per request; the solve plane must not).
func TestServerSteadyPathZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counting is not meaningful under -race")
	}
	s := NewServer(Config{Workers: 1})
	wk := <-s.workers
	req := Request{Problem: KindBurgersSteady, N: 5}
	if err := Normalize(&req, s.cfg.MaxGridN); err != nil {
		t.Fatal(err)
	}
	var resp Response
	if err := wk.run(context.Background(), &req, &resp); err != nil {
		t.Fatal(err) // warm-up builds the shape cache
	}
	allocs := testing.AllocsPerRun(10, func() {
		resp = Response{}
		if err := wk.run(context.Background(), &req, &resp); err != nil {
			t.Error(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady request path allocated %.1f allocs/op, want 0", allocs)
	}
	if !resp.Converged {
		t.Fatal("warm solve did not converge")
	}
}

// TestConcurrentMixedLoad hammers the service with a mix of kinds and
// seeds; run under -race it is the serving stack's data-race gate.
func TestConcurrentMixedLoad(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 4, QueueDepth: 64})
	kinds := []Request{
		{Problem: KindBurgers2D, N: 3},
		{Problem: KindBurgersSteady, N: 4},
		{Problem: KindBurgers1D, N: 24},
		{Problem: KindNetlist, Netlist: testNetlist},
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				req := kinds[(g+i)%len(kinds)]
				req.Seed = int64(1 + g)
				code, resp, _, err := trySolve(ts.URL, req)
				if err != nil {
					t.Error(err)
					return
				}
				if code != http.StatusOK && code != http.StatusTooManyRequests {
					t.Errorf("%s: status %d, error %q", req.Problem, code, resp.Error)
				}
			}
		}(g)
	}
	wg.Wait()
}
