package cluster

import (
	"context"
	"io"
	"net/http"
	"strconv"
	"time"

	"hybridpde/internal/cache"
	"hybridpde/internal/serve"
)

// Config tunes the gateway. The zero value plus a backend list is usable:
// every other field has a production-shaped default.
type Config struct {
	// Backends is the fixed fleet of pdeserved base URLs the ring is
	// built over (e.g. http://127.0.0.1:18080). Required, non-empty.
	Backends []string
	// MaxGridN mirrors the backends' grid cap so the gateway normalizes
	// requests over the same identity the backends cache under.
	// Default 12.
	MaxGridN int
	// MaxSteps mirrors the backends' stream step cap (-max-steps) so the
	// gateway rejects over-long trajectories before routing them.
	// Default 256.
	MaxSteps int
	// ProbeInterval is the health-probe period. Default 500ms.
	ProbeInterval time.Duration
	// BatchWindow is how long the first request of a shape holds its
	// batch window open. Default 2ms; negative disables batching.
	BatchWindow time.Duration
	// MaxBatch bounds a window's size; a full window flushes
	// immediately. Default 8.
	MaxBatch int
	// BreakerThreshold is how many consecutive failures (dispatch or
	// probe) open a backend's circuit breaker. Default 3. The first
	// failure already takes a backend out of the healthy view.
	BreakerThreshold int
	// RetryBudgetRatio is how many retry tokens each primary dispatch
	// deposits (the Envoy-style budget: failovers stay a bounded fraction
	// of primary traffic). 0 uses the default 0.1; negative disables
	// refill entirely, leaving only the initial RetryBudgetMax tokens.
	RetryBudgetRatio float64
	// RetryBudgetMax caps the token bucket (and is its starting balance).
	// Default 32.
	RetryBudgetMax float64
	// DefaultTimeout bounds a gateway request when it carries no
	// deadline_ms; MaxTimeout clamps client-supplied deadlines. The
	// remaining budget is forwarded to backends per attempt via the
	// X-Pde-Deadline-Budget header. Defaults mirror serve: 5s and 30s.
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// Client is the upstream HTTP client. Default: a dedicated client
	// with keep-alive (so a flushed batch rides one connection) and no
	// overall timeout — per-request contexts bound each call.
	Client *http.Client
}

const (
	// maxUpstreamBytes bounds how much of a buffered backend reply is read.
	maxUpstreamBytes = 1 << 20
	// probeTimeout bounds one health-probe round trip.
	probeTimeout = time.Second
)

func (c *Config) defaults() {
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 500 * time.Millisecond
	}
	if c.BatchWindow == 0 {
		c.BatchWindow = 2 * time.Millisecond
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 8
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = 3
	}
	if c.RetryBudgetRatio == 0 { //pdevet:allow floateq zero is the config-absent sentinel (never computed)
		c.RetryBudgetRatio = 0.1
	}
	if c.RetryBudgetMax <= 0 {
		c.RetryBudgetMax = 32
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 5 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 30 * time.Second
	}
	if c.Client == nil {
		c.Client = &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 16,
			IdleConnTimeout:     90 * time.Second,
		}}
	}
}

// Gateway fronts a fleet of pdeserved backends: shape-affine consistent-
// hash routing, one health record (a circuit breaker) per backend,
// same-shape batching, and its own metrics plane. Create with New, expose
// via Handler, stop with Close (or, for graceful shutdown, the embedded
// gate's BeginDrain + Drain, then Close).
type Gateway struct {
	serve.DrainGate
	cfg    Config
	ring   *Ring
	health *health
	m      *gwMetrics
	b      *batcher
	budget *retryBudget

	stopProbe context.CancelFunc
	probeDone chan struct{}
}

// New builds the gateway, probes every backend once, and starts its health
// prober, which runs until Close. The first sweep is done before New
// returns, so the gateway knows its fleet before the first request.
func New(cfg Config) (*Gateway, error) {
	cfg.defaults()
	ring, err := NewRing(cfg.Backends, DefaultVNodes)
	if err != nil {
		return nil, err
	}
	g := &Gateway{
		cfg:       cfg,
		ring:      ring,
		m:         newGwMetrics(),
		probeDone: make(chan struct{}),
	}
	g.health = newHealth(ring.Members(), cfg.BreakerThreshold, g.m)
	g.b = newBatcher(cfg.BatchWindow, cfg.MaxBatch, g.m)
	g.budget = newRetryBudget(cfg.RetryBudgetRatio, cfg.RetryBudgetMax)
	ctx, cancel := context.WithCancel(context.Background())
	g.stopProbe = cancel
	g.probeSweep(ctx)
	go g.probeLoop(ctx)
	return g, nil
}

// Close stops the health prober. Call after Drain on graceful shutdown.
func (g *Gateway) Close() {
	g.stopProbe()
	<-g.probeDone
}

// Handler returns the gateway mux: POST /v1/solve, POST /v1/stream
// (flush-through NDJSON proxy), GET /v1/problems (proxied), GET /healthz
// (readiness), GET /livez (liveness), GET /metrics, GET /cluster
// (per-backend health snapshot).
func (g *Gateway) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST "+string(serve.EndpointSolve), g.handleSolve)
	mux.HandleFunc("POST "+string(serve.EndpointStream), g.handleStream)
	mux.HandleFunc("GET /v1/problems", g.handleProblems)
	mux.HandleFunc("GET /healthz", g.handleHealthz)
	mux.HandleFunc("GET /livez", serve.Livez)
	mux.HandleFunc("GET /metrics", g.handleMetrics)
	mux.HandleFunc("GET /cluster", g.handleCluster)
	return mux
}

// probeLoop drives the health records after New's first sweep:
// one sweep per probe interval until ctx is cancelled (Close).
func (g *Gateway) probeLoop(ctx context.Context) {
	defer close(g.probeDone)
	ticker := time.NewTicker(g.cfg.ProbeInterval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
			g.probeSweep(ctx)
		}
	}
}

// probeSweep is one tick of the health clock, then one probe of every
// backend that is due. Every probe outcome is observed like a dispatch
// outcome, so a recovered backend closes its breaker from the prober's
// evidence alone, without live traffic having to gamble on it first.
func (g *Gateway) probeSweep(ctx context.Context) {
	for _, url := range g.health.tick() {
		pctx, cancel := context.WithTimeout(ctx, probeTimeout)
		g.health.probed(url, probeBackend(pctx, g.cfg.Client, url))
		cancel()
	}
}

// routed is one request past the route prelude: validated, keyed, inside
// the drain gate and under its deadline. The caller owes it one release.
type routed struct {
	body            []byte    // the raw request, forwarded verbatim
	shape, identity cache.Key // ring-routing key; in-flight dedup key
	release         func()
}

// route is the prelude POST /v1/solve and POST /v1/stream share: drain
// check → read, decode and normalize by the backends' own rules for the
// endpoint → shape and identity keys → drain gate → deadline context (same
// resolution as the backends; open forwards what remains of it per attempt).
// ok=false means the request has been answered (rejected and counted) here.
func (g *Gateway) route(w http.ResponseWriter, r *http.Request, ep serve.Endpoint) (ctx context.Context, rt routed, ok bool) {
	if g.Draining() {
		g.rejectJSON(w, http.StatusServiceUnavailable, "gateway is draining")
		return nil, rt, false
	}
	req, body, err := serve.DecodeRequest(w, r, ep, g.cfg.MaxGridN, g.cfg.MaxSteps)
	if err != nil {
		g.rejectJSON(w, http.StatusBadRequest, err.Error())
		return nil, rt, false
	}
	var kb cache.KeyBuilder
	rt.body = body
	rt.shape = serve.ShapeKey(&req, &kb)
	rt.identity = serve.SolveKey(&req, &kb)
	if !g.Enter() {
		g.rejectJSON(w, http.StatusServiceUnavailable, "gateway is draining")
		return nil, rt, false
	}
	g.m.inflight.Inc()
	ctx, cancel := context.WithTimeout(r.Context(), req.Timeout(g.cfg.DefaultTimeout, g.cfg.MaxTimeout))
	rt.release = func() {
		cancel()
		g.m.inflight.Dec()
		g.Leave()
	}
	return ctx, rt, true
}

// handleSolve is POST /v1/solve, the buffered tail behind the route
// prelude: the same-shape batcher (an optional pre-stage) in front of the
// failover walk, then one relayed reply.
func (g *Gateway) handleSolve(w http.ResponseWriter, r *http.Request) {
	ctx, rt, ok := g.route(w, r, serve.EndpointSolve)
	if !ok {
		return
	}
	defer rt.release()
	g.reply(w, g.b.submit(ctx, rt.shape, rt.identity, rt.body, g.dispatch))
}

// reply counts and writes a buffered outcome: a backend's reply relayed
// verbatim (Retry-After included), or a gateway-originated error body.
func (g *Gateway) reply(w http.ResponseWriter, res dispatchResult) {
	code := resultStatus(res)
	g.m.requests.With(strconv.Itoa(code)).Inc()
	if res.retryAfter != "" {
		w.Header().Set("Retry-After", res.retryAfter)
	}
	if res.err != nil {
		serve.WriteJSON(w, code, errorBody{"upstream dispatch failed: " + res.err.Error()})
		return
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(code)
	w.Write(res.body)
}

// handleProblems proxies GET /v1/problems to the first healthy backend in
// member order (the registry is identical fleet-wide by construction).
func (g *Gateway) handleProblems(w http.ResponseWriter, r *http.Request) {
	for _, url := range g.ring.Members() {
		if !g.health.healthy(url) {
			continue
		}
		req, err := http.NewRequestWithContext(r.Context(), http.MethodGet, url+"/v1/problems", nil)
		if err != nil {
			continue
		}
		resp, err := g.cfg.Client.Do(req)
		if err != nil {
			continue
		}
		payload, err := io.ReadAll(io.LimitReader(resp.Body, maxUpstreamBytes))
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			continue
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		w.Write(payload)
		return
	}
	g.rejectJSON(w, http.StatusBadGateway, "no healthy backend")
}

// handleHealthz is the gateway's readiness probe: ready while not
// draining and at least one backend is healthy.
func (g *Gateway) handleHealthz(w http.ResponseWriter, r *http.Request) {
	switch {
	case g.Draining():
		serve.WriteJSON(w, http.StatusServiceUnavailable, serve.Health{Ready: false, Reason: "draining"})
	case g.healthyCount() == 0:
		serve.WriteJSON(w, http.StatusServiceUnavailable, serve.Health{Ready: false, Reason: "no healthy backend"})
	default:
		serve.WriteJSON(w, http.StatusOK, serve.Health{Ready: true})
	}
}

// handleMetrics is GET /metrics: the gateway's own Prometheus page. The
// health and draining gauges are computed at scrape time, so they never lag
// the state they report.
func (g *Gateway) handleMetrics(w http.ResponseWriter, r *http.Request) {
	g.m.healthyBackends.Set(int64(g.healthyCount()))
	if g.Draining() {
		g.m.draining.Set(1)
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	g.m.writeProm(w)
}

// ClusterMember is one backend's row in the GET /cluster snapshot.
type ClusterMember struct {
	URL       string `json:"url"`
	State     string `json:"state"`
	Evictions uint64 `json:"evictions"`
	Readds    uint64 `json:"readds"`
}

// ClusterSnapshot is the GET /cluster body: the gateway's current view of
// its fleet.
type ClusterSnapshot struct {
	RingMembers int             `json:"ring_members"`
	VNodes      int             `json:"vnodes_per_member"`
	Healthy     int             `json:"healthy"`
	Draining    bool            `json:"draining"`
	Members     []ClusterMember `json:"members"`
}

// healthyCount is how many backends are in the healthy view.
func (g *Gateway) healthyCount() int {
	_, n := g.health.members()
	return n
}

// handleCluster is GET /cluster: a JSON snapshot of the backends' health,
// in sorted member order (deterministic bodies; smoke scripts grep them).
// A member is "healthy" or "evicted" (out of the healthy view).
func (g *Gateway) handleCluster(w http.ResponseWriter, r *http.Request) {
	members, healthy := g.health.members()
	serve.WriteJSON(w, http.StatusOK, ClusterSnapshot{
		RingMembers: g.ring.Len(),
		VNodes:      DefaultVNodes,
		Healthy:     healthy,
		Draining:    g.Draining(),
		Members:     members,
	})
}

// errorBody is the error-only JSON body the gateway originates itself
// (backend bodies are relayed verbatim); it reads like a backend rejection.
type errorBody struct {
	Error string `json:"error"`
}

// rejectJSON counts and encodes a gateway-originated rejection.
func (g *Gateway) rejectJSON(w http.ResponseWriter, code int, msg string) {
	g.m.requests.With(strconv.Itoa(code)).Inc()
	serve.WriteJSON(w, code, errorBody{msg})
}
