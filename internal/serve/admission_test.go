package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"

	"hybridpde/internal/cache"
)

// TestEndpointAdmissionParity pins the one-prelude contract: every way the
// admission prelude can refuse (or clamp) a request answers /v1/solve and
// /v1/stream with the same status, counts it under the same requests{code}
// child, and leaves no queue slot, queue-depth or in-flight count behind.
func TestEndpointAdmissionParity(t *testing.T) {
	const valid = `{"problem":"burgers1d","n":8}`
	rows := []struct {
		name, body, budget  string
		drain, fill, starve bool // close the gate / fill every queue slot / hold the only worker
		code                int
		counter             func(m *metrics) uint64 // must read 1 afterwards, when set
	}{
		{name: "draining", body: valid, drain: true, code: http.StatusServiceUnavailable},
		{name: "malformed JSON", body: `{"problem":`, code: http.StatusBadRequest},
		{name: "unknown field", body: `{"problem":"burgers1d","frobnicate":1}`, code: http.StatusBadRequest},
		{name: "oversize body", code: http.StatusBadRequest,
			body: `{"problem":"burgers1d","pad":"` + strings.Repeat("x", maxBodyBytes) + `"}`},
		{name: "retired netlist kind", body: `{"problem":"netlist"}`, code: http.StatusBadRequest},
		{name: "unknown kind", body: `{"problem":"heat3d"}`, code: http.StatusBadRequest},
		{name: "spent budget", body: valid, budget: "0", code: http.StatusGatewayTimeout,
			counter: func(m *metrics) uint64 { return m.budgetRejects.Value() }},
		{name: "tight budget", body: valid, budget: "4000", code: http.StatusOK,
			counter: func(m *metrics) uint64 { return m.budgetClamped.Value() }},
		{name: "queue full", body: valid, fill: true, code: http.StatusTooManyRequests,
			counter: func(m *metrics) uint64 { return m.queueRejects.Value() }},
		{name: "deadline while queued", body: `{"problem":"burgers1d","n":8,"deadline_ms":40}`,
			starve: true, code: http.StatusGatewayTimeout},
	}
	for _, row := range rows {
		for _, ep := range []Endpoint{EndpointSolve, EndpointStream} {
			s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
			if row.drain {
				s.BeginDrain()
			}
			for i := 0; row.fill && i < cap(s.queueSlots); i++ {
				s.queueSlots <- struct{}{}
			}
			if row.starve {
				<-s.workers
			}
			hr, err := http.NewRequest(http.MethodPost, ts.URL+string(ep), strings.NewReader(row.body))
			if err != nil {
				t.Fatal(err)
			}
			if row.budget != "" {
				hr.Header.Set(DeadlineBudgetHeader, row.budget)
			}
			resp, err := http.DefaultClient.Do(hr)
			if err != nil {
				t.Fatalf("%s %s: %v", row.name, ep, err)
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatalf("%s %s: reading reply: %v", row.name, ep, err)
			}
			for row.fill && len(s.queueSlots) > 0 {
				<-s.queueSlots
			}

			if resp.StatusCode != row.code {
				t.Fatalf("%s %s: status %d, want %d: %s", row.name, ep, resp.StatusCode, row.code, body)
			}
			if row.code == http.StatusTooManyRequests && resp.Header.Get("Retry-After") == "" {
				t.Fatalf("%s %s: 429 without Retry-After", row.name, ep)
			}
			// A refusal counts under its kind when the registry serves it,
			// else under "unknown": a client-chosen string never becomes a
			// series, though the reply echoes it.
			var prom strings.Builder
			s.m.writeProm(&prom)
			for _, raw := range []string{"netlist", "heat3d"} {
				if strings.Contains(prom.String(), `problem="`+raw+`"`) {
					t.Fatalf("%s %s: /metrics holds a %q series", row.name, ep, raw)
				}
			}
			counted := uint64(0)
			for _, problem := range []string{"unknown", KindBurgers1D} {
				counted += s.m.requests.With(problem, strconv.Itoa(row.code)).Value()
			}
			if counted != 1 {
				t.Fatalf("%s %s: requests{code=%d} moved by %d, want 1", row.name, ep, row.code, counted)
			}
			if strings.Contains(row.body, "netlist") || strings.Contains(row.body, "heat3d") {
				if s.m.requests.With("unknown", strconv.Itoa(row.code)).Value() != 1 {
					t.Fatalf("%s %s: refusal not counted under problem=\"unknown\"", row.name, ep)
				}
				var reply Response
				if err := json.Unmarshal(body, &reply); err != nil || !strings.Contains(row.body, `"`+reply.Problem+`"`) {
					t.Fatalf("%s %s: reply names problem %q (%v), want the raw kind echoed", row.name, ep, reply.Problem, err)
				}
			}
			if row.counter != nil && row.counter(s.m) != 1 {
				t.Fatalf("%s %s: refusal counter reads %d, want 1", row.name, ep, row.counter(s.m))
			}
			if q, in, slots := s.m.queueDepth.Value(), s.m.inflight.Value(), len(s.queueSlots); q != 0 || in != 0 || slots != 0 {
				t.Fatalf("%s %s: left behind queue depth %d, in-flight %d, %d queue slots", row.name, ep, q, in, slots)
			}
		}
	}
}

// TestFlightWaitTimeoutLeavesNoQueueDepth is the regression test for the
// queue-depth gauge leak: followers whose wait on an identical in-flight
// solve times out must come off the gauge — it feeds the autoscaler, which
// would otherwise scale up on phantom load and never see an idle tick.
func TestFlightWaitTimeoutLeavesNoQueueDepth(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 16})
	req := Request{Problem: KindBurgersSteady, N: 5, Seed: 78}
	if err := Normalize(&req, 0); err != nil {
		t.Fatal(err)
	}
	// The test itself is the slow leader: it holds the flight open, so every
	// HTTP request for the same identity is a follower.
	var kb cache.KeyBuilder
	key := SolveKey(&req, &kb)
	if _, leader := s.cache.Join(key); !leader {
		t.Fatal("the test did not become the flight leader")
	}
	defer s.cache.Done(key)

	const n = 4
	req.DeadlineMillis = 40 // not part of the identity
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if code, _, _, err := trySolve(ts.URL, req); err != nil || code != http.StatusGatewayTimeout {
				t.Errorf("follower: code %d err %v, want 504", code, err)
			}
		}()
	}
	wg.Wait()
	if waits := s.m.cacheFlightWaits.Value(); waits != n {
		t.Fatalf("flight waits = %d, want %d followers", waits, n)
	}
	if q, obs := s.m.queueDepth.Value(), s.Observe().QueueDepth; q != 0 || obs != 0 {
		t.Fatalf("after %d timed-out followers: queue-depth gauge %d, Observe().QueueDepth %d, want 0", n, q, obs)
	}
}
