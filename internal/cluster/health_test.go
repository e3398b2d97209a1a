package cluster

import (
	"context"
	"errors"
	"io"
	"net/http"
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
