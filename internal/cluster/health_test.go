package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"
	"time"

	"hybridpde/internal/serve"
)

// scriptedTransport lets a test script what an upstream POST does while
// health probes still reach the real backend.
type scriptedTransport struct {
	post func(*http.Request) (*http.Response, error)
}

func (s *scriptedTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.Method == http.MethodPost {
		return s.post(r)
	}
	return http.DefaultTransport.RoundTrip(r)
}

func cannedResponse(code int, body io.Reader) *http.Response {
	return &http.Response{
		StatusCode: code,
		Status:     http.StatusText(code),
		Header:     http.Header{"Content-Type": {serve.NDJSONContentType}},
		Body:       io.NopCloser(body),
	}
}

// TestGatewayHealthAttribution pins the three-valued outcome on both
// endpoints: a backend that fails is charged (even after a stream has
// committed), an attempt that ended for the client's reasons is charged to
// nobody, and a deadline that expires mid-walk is a 504 on either path.
func TestGatewayHealthAttribution(t *testing.T) {
	entered := make(chan struct{}, 1)
	rows := []struct {
		name string
		// suspect starts the backend evicted and half-open, where a wrongly
		// booked success shows as a re-add and a closed breaker.
		suspect    bool
		deadlineMS int64
		cancel     bool // the client hangs up once the upstream call is in flight
		post       func(*http.Request) (*http.Response, error)
		// status by endpoint {solve, stream}; 0 = the client never sees one.
		status  [2]int
		breaker breakerState
	}{
		{name: "mid-body upstream reset",
			post: func(*http.Request) (*http.Response, error) {
				body := io.MultiReader(strings.NewReader(`{"step":1}`+"\n"), iotest.ErrReader(io.ErrUnexpectedEOF))
				return cannedResponse(http.StatusOK, body), nil
			},
			// The buffered reply never got an answer; the stream had committed.
			status: [2]int{http.StatusBadGateway, http.StatusOK}, breaker: breakerOpen},
		{name: "spent budget", suspect: true, deadlineMS: 1,
			post: func(*http.Request) (*http.Response, error) {
				t.Error("a request with no deadline left was dispatched")
				return nil, context.DeadlineExceeded
			},
			status: [2]int{http.StatusGatewayTimeout, http.StatusGatewayTimeout}, breaker: breakerHalfOpen},
		{name: "client cancel", suspect: true, cancel: true,
			post: func(r *http.Request) (*http.Response, error) {
				entered <- struct{}{}
				<-r.Context().Done()
				return nil, r.Context().Err()
			},
			breaker: breakerHalfOpen},
		{name: "deadline mid-walk", deadlineMS: 30,
			post: func(r *http.Request) (*http.Response, error) {
				<-r.Context().Done() // the backend fails only as the deadline passes
				return cannedResponse(http.StatusServiceUnavailable, strings.NewReader("{}")), nil
			},
			status: [2]int{http.StatusGatewayTimeout, http.StatusGatewayTimeout}, breaker: breakerOpen},
	}
	for _, row := range rows {
		for i, ep := range []serve.Endpoint{serve.EndpointSolve, serve.EndpointStream} {
			f := newTestFleet(t, 1, Config{
				ProbeInterval: time.Hour, BreakerThreshold: 1,
				Client: &http.Client{Transport: &scriptedTransport{post: row.post}},
			})
			url := f.backends[0].URL
			if row.suspect {
				f.gw.health.observe(url, backendFailed, false) // evicted, breaker open
				f.gw.health.tick()                             // the open window is 2 sweeps:
				f.gw.health.tick()                             // half-open
			}

			body := `{"problem":"burgers2d","n":4`
			if row.deadlineMS > 0 {
				body += `,"deadline_ms":` + strconv.FormatInt(row.deadlineMS, 10)
			}
			ctx, cancel := context.WithCancel(context.Background())
			hr, err := http.NewRequestWithContext(ctx, http.MethodPost, f.gwServer.URL+string(ep), strings.NewReader(body+"}"))
			if err != nil {
				t.Fatal(err)
			}
			if row.cancel {
				go func() { <-entered; cancel() }()
			}
			status := 0
			if resp, err := http.DefaultClient.Do(hr); err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				status = resp.StatusCode
			}
			cancel()
			for deadline := time.Now().Add(5 * time.Second); f.gw.m.inflight.Value() != 0; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("%s %s: the gateway never finished the request", row.name, ep)
				}
			}

			if status != row.status[i] {
				t.Errorf("%s %s: status %d, want %d", row.name, ep, status, row.status[i])
			}
			if got := f.gw.health.state(url); got != row.breaker {
				t.Errorf("%s %s: breaker %v, want %v", row.name, ep, got, row.breaker)
			}
			if f.gw.health.healthy(url) {
				t.Errorf("%s %s: member is healthy, want evicted", row.name, ep)
			}
			if n := f.gw.m.readds.Value(); n != 0 {
				t.Errorf("%s %s: pdegw_readds_total = %d, want 0", row.name, ep, n)
			}
		}
	}
}

// TestOpenSpentBudgetNotRouted: an attempt with under 1 ms of its deadline
// left is refused before it is built, so it is never counted as sent.
func TestOpenSpentBudgetNotRouted(t *testing.T) {
	g := &Gateway{m: newGwMetrics()}
	ctx, cancel := context.WithTimeout(context.Background(), 500*time.Microsecond)
	defer cancel()
	const url = "http://backend.test"
	resp, o, err := g.open(ctx, url, serve.EndpointSolve, nil)
	if resp != nil || o != notAttributable || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("open with a spent budget = (%v, %v, %v), want (nil, notAttributable, deadline exceeded)", resp, o, err)
	}
	if n := g.m.backendRouted.With(url).Value(); n != 0 {
		t.Fatalf("pdegw_backend_routed_total{backend=%q} = %d, want 0", url, n)
	}
}

// TestHealthStateMachineExhaustive walks every sequence of health events on
// one backend, breadth first, to a fixed depth: a dispatch admitted by
// allow, the outcome (answered, failed, not attributable) of any
// outstanding dispatch, a prober sweep's tick, and the answer of the probe
// that tick made due. States already reached at a shallower depth are not
// expanded again; the invariants below depend only on the state. Besides
// the fresh closed breaker, the walk starts from a breaker about to turn
// half-open with each possible window, so the window's cap is exercised
// too. After every event it asserts:
//   - at most one trial is outstanding, and the trial slot is held exactly
//     while it is, which only a half-open breaker allows;
//   - an open breaker admits nothing;
//   - a half-open breaker moves only on its trial's outcome, or on a probe
//     while no dispatch holds the slot;
//   - the window stays in [openSweeps, maxOpenSweeps];
//   - healthy implies closed;
//   - evictions − readds ∈ {0, 1}, and the counters move with the record;
//   - the state gauge matches the record.
func TestHealthStateMachineExhaustive(t *testing.T) {
	const (
		url       = "http://backend.test"
		threshold = 2
		depth     = 10
	)
	type node struct {
		rec backend
		// dispatches outstanding, by allow's trial result
		closed, trial int
		probeDue      bool // the last tick made a probe due and it has not answered
		trace         string
	}
	key := func(n node) string {
		r := n.rec
		r.evictions, r.readds = r.evictions-r.readds, 0
		return fmt.Sprintf("%+v %d %d %v", r, n.closed, n.trial, n.probeDue)
	}
	restore := func(n node) *health {
		h := newHealth([]string{url}, threshold, newGwMetrics())
		*h.backends[url] = n.rec
		h.m.breakerState.With(url).Set(int64(n.rec.state))
		return h
	}
	// violations keeps the first trace of each kind of broken invariant, so
	// one run reports every kind the walk can reach, shortest trace first.
	violations := map[string]string{}
	var kinds []string
	violate := func(kind, detail string) {
		if _, ok := violations[kind]; !ok {
			violations[kind] = detail
			kinds = append(kinds, kind)
		}
	}
	outcomes := []struct {
		o    outcome
		name string
	}{{backendAnswered, "answered"}, {backendFailed, "failed"}, {notAttributable, "not attributable"}}
	// step applies one event to a copy of n and checks the invariants. A
	// state that breaks one is reported and not expanded further.
	broken := false
	step := func(n node, name string, event func(h *health, n *node)) node {
		h := restore(n)
		pre := n.rec
		event(h, &n)
		n.rec = *h.backends[url]
		n.trace += " → " + name
		r := n.rec
		fail := func(format string, args ...any) {
			broken = true
			kind := name + ": " + fmt.Sprintf(format, args...)
			violate(kind, fmt.Sprintf("trace:%s\n  before %+v\n  after  %+v", n.trace, pre, r))
		}
		if n.trial > 1 {
			fail("%d trials outstanding", n.trial)
		}
		if r.trial != (n.trial == 1) {
			fail("trial slot %v with %d trials outstanding", r.trial, n.trial)
		}
		if r.trial && r.state != breakerHalfOpen {
			fail("trial slot held by a %v breaker", r.state)
		}
		if r.window < openSweeps || r.window > maxOpenSweeps {
			fail("window %d outside [%d, %d]", r.window, openSweeps, maxOpenSweeps)
		}
		if h.healthy(url) && h.state(url) != breakerClosed {
			fail("healthy with a %v breaker", h.state(url))
		}
		if d := r.evictions - r.readds; d > 1 {
			fail("evictions − readds = %d", int64(d))
		}
		if de, dr := r.evictions-pre.evictions, r.readds-pre.readds; h.m.evictions.Value() != de || h.m.readds.Value() != dr {
			fail("counters moved %d/%d, record %d/%d", h.m.evictions.Value(), h.m.readds.Value(), de, dr)
		}
		if g := h.m.breakerState.With(url).Value(); g != int64(r.state) {
			fail("state gauge %d, record %v", g, r.state)
		}
		return n
	}
	unchanged := func(a, b backend) bool {
		return a.state == b.state && a.fails == b.fails && a.window == b.window && a.wait == b.wait
	}

	var frontier []node
	frontier = append(frontier, node{rec: backend{window: openSweeps}, trace: " closed"})
	for w := openSweeps; w <= maxOpenSweeps; w *= 2 {
		frontier = append(frontier, node{rec: backend{state: breakerOpen, fails: threshold, window: w, wait: 1, evictions: 1}, trace: fmt.Sprintf(" open(window %d, 1 sweep left)", w)})
	}
	seen := map[string]bool{}
	for _, n := range frontier {
		seen[key(n)] = true
	}
	states, events := len(frontier), 0
	for d := 0; d < depth && len(frontier) > 0; d++ {
		var next []node
		visit := func(n node) {
			events++
			if broken {
				broken = false
				return
			}
			if k := key(n); !seen[k] {
				seen[k] = true
				next = append(next, n)
			}
		}
		for _, n := range frontier {
			visit(step(n, "allow", func(h *health, n *node) {
				wasOpen := n.rec.state == breakerOpen
				ok, trial := h.allow(url)
				switch {
				case ok && wasOpen:
					broken = true
					violate("an open breaker admitted a dispatch", "trace:"+n.trace)
				case ok && trial:
					n.trial++
				case ok:
					n.closed++
				}
			}))
			for _, oc := range outcomes {
				for _, trial := range []bool{false, true} {
					if (trial && n.trial == 0) || (!trial && n.closed == 0) {
						continue
					}
					name := fmt.Sprintf("observe(%s, trial=%v)", oc.name, trial)
					m := step(n, name, func(h *health, n *node) {
						h.observe(url, oc.o, trial)
						if trial {
							n.trial--
						} else {
							n.closed--
						}
					})
					if n.rec.state == breakerHalfOpen && !trial && !unchanged(n.rec, m.rec) {
						broken = true
						violate(name+" moved a half-open breaker", fmt.Sprintf("trace:%s\n  %+v → %+v", m.trace, n.rec, m.rec))
					}
					visit(m)
				}
			}
			if !n.probeDue {
				visit(step(n, "tick", func(h *health, n *node) {
					n.probeDue = slices.Contains(h.tick(), url)
				}))
				continue
			}
			for _, ready := range []bool{true, false} {
				name := fmt.Sprintf("probe(ready=%v)", ready)
				m := step(n, name, func(h *health, n *node) {
					h.probed(url, ready)
					n.probeDue = false
				})
				if n.rec.state == breakerHalfOpen && n.rec.trial && !unchanged(n.rec, m.rec) {
					broken = true
					violate(name+" moved a half-open breaker whose trial is running", fmt.Sprintf("trace:%s\n  %+v → %+v", m.trace, n.rec, m.rec))
				}
				visit(m)
			}
		}
		frontier = next
		states += len(next)
	}
	t.Logf("%d states, %d events to depth %d", states, events, depth)
	for _, k := range kinds {
		t.Errorf("%s\n  %s", k, violations[k])
	}
}
