package cluster

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
	"sync/atomic"
	"testing"
	"time"

	"hybridpde/internal/cache"
	"hybridpde/internal/serve"
)

const gwTestNetlist = `# 1-variable Newton slice
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

// swapHandler lets a test replace a backend's handler mid-flight without
// racing the listener — the stand-in for killing and restarting a
// pdeserved process on the same address.
type swapHandler struct {
	v atomic.Value // http.Handler
}

func (h *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h.v.Load().(http.Handler).ServeHTTP(w, r)
}

// testFleet is a gateway in front of real serve.Server backends, all on
// httptest listeners.
type testFleet struct {
	gw       *Gateway
	gwServer *httptest.Server
	backends []*httptest.Server
	servers  []*serve.Server
	handlers []*swapHandler
}

func newTestFleet(t *testing.T, n int, cfg Config) *testFleet {
	t.Helper()
	f := &testFleet{}
	urls := make([]string, n)
	for i := 0; i < n; i++ {
		s := serve.NewServer(serve.Config{Workers: 1, QueueDepth: 16})
		sh := &swapHandler{}
		sh.v.Store(s.Handler())
		ts := httptest.NewServer(sh)
		t.Cleanup(ts.Close)
		f.servers = append(f.servers, s)
		f.handlers = append(f.handlers, sh)
		f.backends = append(f.backends, ts)
		urls[i] = ts.URL
	}
	cfg.Backends = urls
	if cfg.ProbeInterval == 0 {
		cfg.ProbeInterval = 50 * time.Millisecond
	}
	// New's first sweep is done when it returns, so a test that breaks a
	// backend next never races it.
	gw, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(gw.Close)
	f.gw = gw
	f.gwServer = httptest.NewServer(gw.Handler())
	t.Cleanup(f.gwServer.Close)
	return f
}

// ownerIndex returns which backend the ring pins req's shape to (a request
// with steps set normalizes under the stream rules).
func (f *testFleet) ownerIndex(t *testing.T, req serve.Request) int {
	t.Helper()
	err := serve.Normalize(&req, 0)
	if req.Steps != 0 {
		err = serve.NormalizeStream(&req, 0, 0)
	}
	if err != nil {
		t.Fatal(err)
	}
	var kb cache.KeyBuilder
	owner := f.gw.ring.Assign(serve.ShapeKey(&req, &kb))
	for i, ts := range f.backends {
		if ts.URL == owner {
			return i
		}
	}
	t.Fatalf("owner %s is not a fleet backend", owner)
	return -1
}

// postGwSolve posts through the gateway without failing the test, so it
// is safe from non-test goroutines.
func postGwSolve(url string, req serve.Request) (int, serve.Response, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return 0, serve.Response{}, err
	}
	hr, err := http.Post(url+"/v1/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, serve.Response{}, err
	}
	defer hr.Body.Close()
	var resp serve.Response
	if err := json.NewDecoder(hr.Body).Decode(&resp); err != nil {
		return hr.StatusCode, serve.Response{}, err
	}
	return hr.StatusCode, resp, nil
}

// scrape fetches a /metrics page as text.
func scrape(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// sample reads one series' value off a /metrics page; a labelled child that
// was never created reads 0.
func sample(t *testing.T, page, series string) int {
	t.Helper()
	for _, line := range strings.Split(page, "\n") {
		if v, ok := strings.CutPrefix(line, series+" "); ok {
			n, err := strconv.Atoi(v)
			if err != nil {
				t.Fatalf("%s: %v", series, err)
			}
			return n
		}
	}
	return 0
}

func clusterSnap(t *testing.T, url string) ClusterSnapshot {
	t.Helper()
	resp, err := http.Get(url + "/cluster")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap ClusterSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	return snap
}

func TestGatewayRoutesSolves(t *testing.T) {
	f := newTestFleet(t, 3, Config{})
	for _, req := range []serve.Request{
		{Problem: serve.KindBurgers2D, N: 5},
		{Problem: serve.KindBurgers1D, N: 32},
		{Problem: serve.KindNetlist, Netlist: gwTestNetlist},
	} {
		code, resp, err := postGwSolve(f.gwServer.URL, req)
		if err != nil {
			t.Fatal(err)
		}
		if code != http.StatusOK {
			t.Fatalf("%s: status %d", req.Problem, code)
		}
		if resp.Problem != req.Problem {
			t.Fatalf("response problem = %q, want %q", resp.Problem, req.Problem)
		}
	}
	page := scrape(t, f.gwServer.URL)
	if !strings.Contains(page, `pdegw_requests_total{code="200"} 3`) {
		t.Fatalf("metrics missing 3 OK requests:\n%s", page)
	}
}

// TestGatewayShapeAffinity: repeats of one problem land on exactly one
// backend, whose solve cache serves the repeats — the routing invariant
// the ring exists for.
func TestGatewayShapeAffinity(t *testing.T) {
	f := newTestFleet(t, 3, Config{})
	req := serve.Request{Problem: serve.KindBurgers2D, N: 5}
	for i := 0; i < 4; i++ {
		code, _, err := postGwSolve(f.gwServer.URL, req)
		if err != nil {
			t.Fatal(err)
		}
		if code != http.StatusOK {
			t.Fatalf("request %d: status %d", i, code)
		}
	}

	page := scrape(t, f.gwServer.URL)
	routed := 0
	for _, line := range strings.Split(page, "\n") {
		if strings.HasPrefix(line, "pdegw_backend_routed_total{") && !strings.HasSuffix(line, " 0") {
			routed++
		}
	}
	if routed != 1 {
		t.Fatalf("same shape routed to %d backends, want 1\n%s", routed, page)
	}

	// The pinned backend replays the repeats from its solve cache; the
	// other backends never even allocate the shape.
	hot := 0
	for _, ts := range f.backends {
		bp := scrape(t, ts.URL)
		if strings.Contains(bp, "pdeserve_cache_hits_total 3") {
			hot++
		} else if !strings.Contains(bp, "pdeserve_cache_hits_total 0") {
			t.Fatalf("unexpected cache counters on %s:\n%s", ts.URL, bp)
		}
	}
	if hot != 1 {
		t.Fatalf("%d backends saw cache hits, want exactly the pinned one", hot)
	}
}

// TestGatewayFailoverZero5xx: killing the backend that owns a warm shape
// never surfaces a 5xx — the request fails over to the next ring
// successor, the dead backend is evicted, and the failover counter moves.
func TestGatewayFailoverZero5xx(t *testing.T) {
	f := newTestFleet(t, 3, Config{ProbeInterval: time.Hour}) // dispatch path does the evicting
	reqs := []serve.Request{
		{Problem: serve.KindBurgers2D, N: 5},
		{Problem: serve.KindBurgers2D, N: 6},
		{Problem: serve.KindBurgers1D, N: 32},
		{Problem: serve.KindNetlist, Netlist: gwTestNetlist},
	}
	for _, r := range reqs {
		if code, _, err := postGwSolve(f.gwServer.URL, r); err != nil || code != http.StatusOK {
			t.Fatalf("warm-up %s: code=%d err=%v", r.Problem, code, err)
		}
	}

	// Kill exactly the backend that owns the first shape, so at least one
	// request below must walk the ring past a dead member.
	f.backends[f.ownerIndex(t, reqs[0])].Close()

	ok := len(reqs) // the warm-up replies
	for _, r := range reqs {
		code, _, err := postGwSolve(f.gwServer.URL, r)
		if err != nil {
			t.Fatal(err)
		}
		if code >= 500 {
			t.Fatalf("%s surfaced %d after backend kill", r.Problem, code)
		}
		if code == http.StatusOK {
			ok++
		}
	}

	page := scrape(t, f.gwServer.URL)
	snap := clusterSnap(t, f.gwServer.URL)
	evicted := 0
	for _, m := range snap.Members {
		if m.State == "evicted" {
			evicted++
		}
	}
	if evicted != 1 {
		t.Fatalf("evicted members = %d, want 1\n%s", evicted, page)
	}
	if strings.Contains(page, "pdegw_failovers_total 0\n") {
		t.Fatalf("no failovers recorded after backend kill:\n%s", page)
	}
	// The kill is charged to the dead backend, and every 200 the client saw
	// is one upstream 200 (the dead backend's were all before the kill).
	dead := f.backends[f.ownerIndex(t, reqs[0])].URL
	if n := sample(t, page, `pdegw_backend_failures_total{backend="`+dead+`"}`); n < 1 {
		t.Fatalf("pdegw_backend_failures_total for the killed backend = %d, want ≥ 1\n%s", n, page)
	}
	upstreamOK := 0
	for _, ts := range f.backends {
		upstreamOK += sample(t, page, `pdegw_backend_requests_total{backend="`+ts.URL+`",code="200"}`)
	}
	if upstreamOK != ok {
		t.Fatalf("pdegw_backend_requests_total code 200 sums to %d, want the %d replies\n%s", upstreamOK, ok, page)
	}
}

// TestGatewayProberEvictsAndReadds: the probe loop notices a draining
// backend without any traffic, and a recovered backend rejoins on the
// backoff schedule.
func TestGatewayProberEvictsAndReadds(t *testing.T) {
	f := newTestFleet(t, 3, Config{ProbeInterval: 20 * time.Millisecond})

	// Drain one backend: its readiness flips to 503 while the listener
	// stays up, which must still evict it.
	f.servers[2].BeginDrain()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if snap := clusterSnap(t, f.gwServer.URL); snap.Healthy == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("prober never evicted the draining backend")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// "Restart" it: swap in a fresh serve.Server on the same listener so
	// the URL (and ring position) is unchanged.
	fresh := serve.NewServer(serve.Config{Workers: 1, QueueDepth: 16})
	f.handlers[2].v.Store(fresh.Handler())
	for {
		snap := clusterSnap(t, f.gwServer.URL)
		if snap.Healthy == 3 {
			for _, m := range snap.Members {
				if m.State != "healthy" {
					t.Fatalf("member %s still %s after recovery", m.URL, m.State)
				}
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("prober never re-added the recovered backend")
		}
		time.Sleep(10 * time.Millisecond)
	}
	page := scrape(t, f.gwServer.URL)
	for _, want := range []string{"pdegw_evictions_total 1", "pdegw_readds_total 1", "pdegw_healthy_backends 3"} {
		if !strings.Contains(page, want) {
			t.Fatalf("metrics missing %q:\n%s", want, page)
		}
	}
}

// TestGatewayBatchDedup: identical concurrent requests coalesce into one
// window and one upstream call.
func TestGatewayBatchDedup(t *testing.T) {
	f := newTestFleet(t, 2, Config{BatchWindow: 300 * time.Millisecond, MaxBatch: 4})
	req := serve.Request{Problem: serve.KindBurgers2D, N: 5}

	const waiters = 4
	var wg sync.WaitGroup
	codes := make([]int, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			codes[i], _, _ = postGwSolve(f.gwServer.URL, req)
		}(i)
	}
	wg.Wait()
	for i, c := range codes {
		if c != http.StatusOK {
			t.Fatalf("waiter %d: status %d", i, c)
		}
	}
	page := scrape(t, f.gwServer.URL)
	if strings.Contains(page, "pdegw_batch_deduped_total 0\n") {
		t.Fatalf("no dedup recorded for identical concurrent requests:\n%s", page)
	}
	if !strings.Contains(page, `pdegw_requests_total{code="200"} 4`) {
		t.Fatalf("metrics missing the 4 OK requests:\n%s", page)
	}
}

func TestGatewayRejectsBadRequests(t *testing.T) {
	f := newTestFleet(t, 1, Config{})
	for _, body := range []string{
		`{"problem":"no-such-problem"}`,
		`{"problem":"burgers2d","n":-3}`,
		`{"unknown_field":1}`,
		`not json`,
	} {
		resp, err := http.Post(f.gwServer.URL+"/v1/solve", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("body %q: status %d, want 400", body, resp.StatusCode)
		}
	}
}

func TestGatewayDrain(t *testing.T) {
	f := newTestFleet(t, 1, Config{})
	if code, _, err := postGwSolve(f.gwServer.URL, serve.Request{Problem: serve.KindBurgers2D}); err != nil || code != http.StatusOK {
		t.Fatalf("solve before drain: code=%d err=%v", code, err)
	}

	resp, err := http.Get(f.gwServer.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz before drain = %d", resp.StatusCode)
	}

	f.gw.BeginDrain()

	resp, err = http.Get(f.gwServer.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h serve.Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || h.Ready || h.Reason != "draining" {
		t.Fatalf("healthz during drain = %d %+v", resp.StatusCode, h)
	}

	code, _, err := postGwSolve(f.gwServer.URL, serve.Request{Problem: serve.KindBurgers2D})
	if err != nil {
		t.Fatal(err)
	}
	if code != http.StatusServiceUnavailable {
		t.Fatalf("solve during drain = %d, want 503", code)
	}

	// Liveness stays 200 throughout.
	resp, err = http.Get(f.gwServer.URL + "/livez")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("livez during drain = %d", resp.StatusCode)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := f.gw.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}

	// Drained: the gauges say so, and nothing is left in flight, here or
	// upstream.
	page := scrape(t, f.gwServer.URL)
	for _, want := range []string{"pdegw_draining 1\n", "pdegw_inflight_requests 0\n"} {
		if !strings.Contains(page, want) {
			t.Fatalf("metrics missing %q after drain:\n%s", want, page)
		}
	}
	children := 0
	for _, line := range strings.Split(page, "\n") {
		if strings.HasPrefix(line, "pdegw_backend_inflight{") {
			children++
			if !strings.HasSuffix(line, " 0") {
				t.Fatalf("upstream request still in flight after drain: %s", line)
			}
		}
	}
	if children != 1 {
		t.Fatalf("pdegw_backend_inflight has %d children, want 1:\n%s", children, page)
	}
}

func TestGatewayProblemsProxy(t *testing.T) {
	f := newTestFleet(t, 2, Config{})
	resp, err := http.Get(f.gwServer.URL + "/v1/problems")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("problems proxy = %d", resp.StatusCode)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(b, []byte(serve.KindBurgers2D)) {
		t.Fatalf("problems body missing %s: %s", serve.KindBurgers2D, b)
	}
}
