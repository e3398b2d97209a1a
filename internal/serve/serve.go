// Package serve is the network-facing entry point of the hybrid pipeline: a
// stdlib-only HTTP/JSON service that treats the accelerator the way the
// paper pitches it (§2, §7) — as a shared co-processor for PDE workloads
// behind a queueing discipline. Requests against a problem registry
// (Burgers steady/MOL, the 2-D grid problems, netlist programs) are
// admitted into a bounded queue with explicit backpressure (429 +
// Retry-After when full), executed by a worker pool sized to GOMAXPROCS
// where each worker owns a core.Workspace for life and per-shape problem
// caches so the steady-state request path stays allocation-free, honor
// per-request deadlines through context, and drain in flight on graceful
// shutdown. A metrics plane (/metrics in Prometheus text exposition,
// /healthz, pprof on the debug mux) rides alongside.
package serve

import (
	"net/http"
	"net/http/pprof"
	"runtime"
	"sync"
	"time"

	"hybridpde/internal/adapt"
	"hybridpde/internal/cache"
	"hybridpde/internal/fault"
)

// Config tunes the service. The zero value is usable: every field has a
// production-shaped default.
type Config struct {
	// Workers is the initial solve concurrency. Default:
	// runtime.GOMAXPROCS(0), the sizing that keeps one CPU-bound solve per
	// core.
	Workers int
	// MinWorkers and MaxWorkers bound Resize (the adaptive controller's
	// range). Both default to Workers, which pins the pool at a fixed size
	// — exactly the pre-autoscaling behaviour. Workers is clamped into
	// [MinWorkers, MaxWorkers].
	MinWorkers int
	MaxWorkers int
	// QueueDepth bounds requests admitted but not yet executing. Beyond
	// Workers+QueueDepth outstanding requests the service sheds load with
	// 429. Default 64.
	QueueDepth int
	// MaxGridN caps the 2-D grid size a request may ask for. Default 12
	// (2·12² = 288 unknowns per solve).
	MaxGridN int
	// DefaultTimeout bounds a solve (queue wait included) when the request
	// carries no deadline_ms. Default 5s.
	DefaultTimeout time.Duration
	// MaxTimeout clamps client-supplied deadlines. Default 30s.
	MaxTimeout time.Duration
	// Seed is the base seed of worker fabrics and accelerators; worker i
	// uses Seed+i so hardware mismatch draws are independent per worker
	// yet the whole fleet is reproducible. Default 1.
	Seed int64
	// Faults, when non-nil, injects the given fault specification into
	// every worker accelerator (chaos mode). Injector seeds are salted per
	// worker and capacity, so a fixed Seed reproduces the whole fleet's
	// fault sequence. The spec must be valid (ParseSpec output is; validate
	// hand-built specs first).
	Faults *fault.Spec
	// SeedGate is the degradation ladder's seed-quality gate factor: an
	// analog seed is kept only when ‖F(seed)‖ ≤ SeedGate·‖F(start)‖.
	// Default 1 — reject seeds that make the start worse.
	SeedGate float64
	// MaxRetries bounds per-request retries of degraded or transiently
	// failed solves (only attempted while the fault spec contains transient
	// faults, or on non-client solve errors). 0 defaults to 2; negative
	// disables retries.
	MaxRetries int
	// RetryBackoff is the base of the capped exponential jittered backoff
	// between retries. Default 10ms.
	RetryBackoff time.Duration
	// SolveProcs is each solve's intra-solve worker count (core.Options
	// Procs). 0 and negative mean 1: the benchmark measured splitting a
	// solve at serving sizes as a slowdown (par.speedup_p2 0.87 at dim
	// 512), so the server scales by Workers ≤ GOMAXPROCS; only an
	// embedding caller that wants intra-solve parallelism sets it
	// (pdeserved has no flag for it). Request-level and solve-level
	// parallelism compose multiplicatively — Workers solves × SolveProcs
	// goroutines each. Responses are bit-identical at every setting.
	SolveProcs int
	// CacheEntries bounds the content-addressed solve cache shared by all
	// workers. 0 uses the default capacity (cache.DefaultCapacity);
	// negative disables the cache entirely. Chaos mode (Faults non-nil)
	// also disables it: injected-fault outcomes are per-run draws and must
	// not be frozen into replays. Cold solves with the cache enabled are
	// bit-identical to cache-off solves.
	CacheEntries int
	// MaxSteps caps the step count of a POST /v1/stream trajectory, so a
	// hostile body cannot pin a worker for minutes. Default 256.
	MaxSteps int
}

func (c *Config) defaults() {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.MinWorkers <= 0 {
		c.MinWorkers = c.Workers
	}
	if c.MaxWorkers <= 0 {
		c.MaxWorkers = c.Workers
	}
	if c.MaxWorkers < c.MinWorkers {
		c.MaxWorkers = c.MinWorkers
	}
	if c.Workers < c.MinWorkers {
		c.Workers = c.MinWorkers
	}
	if c.Workers > c.MaxWorkers {
		c.Workers = c.MaxWorkers
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.MaxGridN <= 0 {
		c.MaxGridN = defaultMaxGridN
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 5 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 30 * time.Second
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.SeedGate <= 0 {
		c.SeedGate = 1
	}
	if c.MaxRetries == 0 {
		c.MaxRetries = 2
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 10 * time.Millisecond
	}
	if c.SolveProcs < 1 {
		c.SolveProcs = 1
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = cache.DefaultCapacity
	}
	if c.MaxSteps <= 0 {
		c.MaxSteps = defaultMaxSteps
	}
}

// Server is the solve service. Create with NewServer, expose via Handler
// (API) and DebugHandler (pprof), shut down with BeginDrain + Drain (the
// embedded DrainGate).
type Server struct {
	DrainGate
	cfg Config
	m   *metrics
	// workers is the pool: checking a worker out grants the right to
	// execute one solve. Capacity MaxWorkers; only curWorkers of them
	// circulate, the rest sit parked.
	workers chan *worker
	// queueSlots bounds outstanding (waiting + executing) requests at
	// MaxWorkers+QueueDepth; a failed non-blocking acquire is the
	// load-shed signal. The bound is sized for the pool's ceiling so a
	// scale-up immediately has admitted work to absorb.
	queueSlots chan struct{}
	// resizeMu serialises Resize; curWorkers, parked and seedSeq are
	// guarded by it. Parked workers keep their warm per-shape caches and
	// their stable seed, so a shrink→grow cycle restores exactly the
	// workers it retired (LIFO) instead of paying cold caches twice.
	resizeMu   sync.Mutex
	curWorkers int
	parked     []*worker
	seedSeq    int64
	// cache is the content-addressed solve cache shared by every worker;
	// nil when disabled (CacheEntries < 0 or chaos mode).
	cache *cache.Store
	// transientFaults caches Faults.Transient(): whether retrying a
	// degraded solve can hope for a different outcome.
	transientFaults bool
}

// NewServer builds the service: the worker fleet is created eagerly (each
// with its own Workspace) so the first request of each worker pays no
// setup beyond its problem-shape cache fill.
func NewServer(cfg Config) *Server {
	cfg.defaults()
	s := &Server{
		cfg:        cfg,
		m:          newServeMetrics(),
		workers:    make(chan *worker, cfg.MaxWorkers),
		queueSlots: make(chan struct{}, cfg.MaxWorkers+cfg.QueueDepth),
		curWorkers: cfg.Workers,
		seedSeq:    int64(cfg.Workers),
	}
	if cfg.CacheEntries > 0 && cfg.Faults == nil {
		s.cache = cache.New(cfg.CacheEntries)
	}
	for i := 0; i < cfg.Workers; i++ {
		s.workers <- newWorker(&s.cfg, cfg.Seed+int64(i), s.cache)
	}
	if cfg.Faults != nil {
		s.transientFaults = cfg.Faults.Transient()
		s.m.faultsActive.Set(int64(len(cfg.Faults.Faults)))
	}
	s.m.workers.Set(int64(cfg.Workers))
	return s
}

// Handler returns the API mux: POST /v1/solve, POST /v1/stream (NDJSON
// transient trajectories), GET /v1/problems, GET /healthz (readiness),
// GET /livez (liveness), GET /metrics.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST "+string(EndpointSolve), s.handleSolve)
	mux.HandleFunc("POST "+string(EndpointStream), s.handleStream)
	mux.HandleFunc("GET /v1/problems", s.handleProblems)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /livez", Livez)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

// DebugHandler returns the debug mux: net/http/pprof plus a second mount of
// /metrics, intended for a loopback-only listener.
func (s *Server) DebugHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

// admit tries to claim a queue slot and a place inside the drain gate
// without blocking; false is the backpressure signal (or, while draining,
// the shutdown signal — the caller distinguishes via Draining). An admitted
// request gives both back through admitted.release.
func (s *Server) admit() bool {
	select {
	case s.queueSlots <- struct{}{}:
	default:
		return false
	}
	if !s.Enter() {
		<-s.queueSlots
		return false
	}
	return true
}

// Workers returns the current worker-pool size.
func (s *Server) Workers() int {
	s.resizeMu.Lock()
	defer s.resizeMu.Unlock()
	return s.curWorkers
}

// Resize moves the pool to target workers (clamped to
// [MinWorkers, MaxWorkers]) and returns the achieved size; it implements
// adapt.Pool. Growth is immediate: parked workers are revived first (warm
// caches, original seeds), then fresh workers are created with the next
// unused seeds, so the seed sequence Seed+i is append-only across any
// resize history. Shrink retires only idle workers — each removal is a
// blocking receive from the pool channel, so a worker is never interrupted
// mid-solve — and composes with BeginDrain, whose in-flight requests
// return their workers as they finish.
func (s *Server) Resize(target int, reason string) int {
	s.resizeMu.Lock()
	defer s.resizeMu.Unlock()
	if target < s.cfg.MinWorkers {
		target = s.cfg.MinWorkers
	}
	if target > s.cfg.MaxWorkers {
		target = s.cfg.MaxWorkers
	}
	switch {
	case target > s.curWorkers:
		for target > s.curWorkers {
			s.workers <- s.reviveWorker()
			s.curWorkers++
		}
		s.m.resizes.With("up", reason).Inc()
	case target < s.curWorkers:
		for target < s.curWorkers {
			wk := <-s.workers // idle worker: retired between requests, never mid-solve
			s.parked = append(s.parked, wk)
			s.curWorkers--
		}
		s.m.resizes.With("down", reason).Inc()
	}
	s.m.workers.Set(int64(s.curWorkers))
	return s.curWorkers
}

// reviveWorker returns the most recently parked worker, or builds a fresh
// one with the next unused seed. Callers hold resizeMu.
func (s *Server) reviveWorker() *worker {
	if n := len(s.parked); n > 0 {
		wk := s.parked[n-1]
		s.parked = s.parked[:n-1]
		return wk
	}
	wk := newWorker(&s.cfg, s.cfg.Seed+s.seedSeq, s.cache)
	s.seedSeq++
	return wk
}

// Observe samples the autoscaler's input signals from the metrics plane;
// it implements adapt.Pool.
func (s *Server) Observe() adapt.Signals {
	return adapt.Signals{
		Workers:      s.Workers(),
		QueueDepth:   int(s.m.queueDepth.Value()),
		Inflight:     int(s.m.inflight.Value()),
		Sheds:        s.m.queueRejects.Value(),
		LatencySum:   s.m.solveLatency.Sum(),
		LatencyCount: s.m.solveLatency.Count(),
	}
}
