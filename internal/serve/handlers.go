package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"hybridpde/internal/analog"
	"hybridpde/internal/cache"
	"hybridpde/internal/nonlin"
)

// DeadlineBudgetHeader carries the milliseconds of deadline a gateway has
// left for a forwarded request. The server treats it as a clamp on the
// request's own deadline resolution: there is no point admitting (or
// burning Newton iterations on) work whose caller will hang up first.
const DeadlineBudgetHeader = "X-Pde-Deadline-Budget"

// deadlineBudget parses the gateway's remaining-deadline header. budget 0
// means no (or an unparseable) header; ok=false means the header says the
// budget is already spent.
func deadlineBudget(r *http.Request) (budget time.Duration, ok bool) {
	h := r.Header.Get(DeadlineBudgetHeader)
	if h == "" {
		return 0, true
	}
	ms, err := strconv.ParseInt(h, 10, 64)
	if err != nil {
		return 0, true
	}
	if ms <= 0 {
		return 0, false
	}
	return time.Duration(ms) * time.Millisecond, true
}

// retryAfter is the Retry-After hint, in seconds, on 429 responses.
const retryAfter = "1"

// admitted is one request past the admission prelude. It holds what the
// prelude took — a place inside the drain gate, a queue slot, a count on the
// queue-depth gauge, the deadline context — plus the worker once acquire
// wins one; release gives all of it back on every path out of a handler.
type admitted struct {
	s        *Server
	req      Request
	cancel   context.CancelFunc
	enqueued time.Time
	// dequeue takes the request off the queue-depth gauge, once: acquire
	// calls it on winning a worker, release for a request that gave up queued.
	dequeue func()
	wk      *worker
}

// admitRequest is the admission prelude POST /v1/solve and POST /v1/stream
// share: drain check → bounded decode + validation under the endpoint's
// rules → deadline-budget header → queue slot (or shed) → deadline context.
// ok=false means the request has been answered (rejected and counted) here;
// otherwise the request runs under ctx and the caller owes a one release.
func (s *Server) admitRequest(w http.ResponseWriter, r *http.Request, ep Endpoint) (ctx context.Context, a *admitted, ok bool) {
	if s.Draining() {
		s.reject(w, "", http.StatusServiceUnavailable, "server is draining")
		return nil, nil, false
	}
	req, _, err := DecodeRequest(w, r, ep, s.cfg.MaxGridN, s.cfg.MaxSteps)
	if err != nil {
		s.reject(w, req.Problem, http.StatusBadRequest, err.Error())
		return nil, nil, false
	}
	budget, budgetOK := deadlineBudget(r)
	if !budgetOK {
		s.m.budgetRejects.Inc()
		s.reject(w, req.Problem, http.StatusGatewayTimeout, "deadline budget exhausted before admission")
		return nil, nil, false
	}
	if !s.admit() {
		if s.Draining() {
			s.reject(w, req.Problem, http.StatusServiceUnavailable, "server is draining")
			return nil, nil, false
		}
		s.m.queueRejects.Inc()
		w.Header().Set("Retry-After", retryAfter)
		s.reject(w, req.Problem, http.StatusTooManyRequests, "admission queue full")
		return nil, nil, false
	}

	a = &admitted{s: s, req: req, enqueued: now()}
	s.m.queueDepth.Inc()
	a.dequeue = sync.OnceFunc(s.m.queueDepth.Dec)
	to := req.Timeout(s.cfg.DefaultTimeout, s.cfg.MaxTimeout)
	if budget > 0 && budget < to {
		to = budget
		s.m.budgetClamped.Inc()
	}
	ctx, a.cancel = context.WithTimeout(r.Context(), to)
	return ctx, a, true
}

// acquire blocks until a worker is free; the request keeps its queue slot
// while executing, so the queue gauge hands over to the in-flight gauge
// here. If the context dies first the request is answered here (false).
func (a *admitted) acquire(ctx context.Context, w http.ResponseWriter) bool {
	select {
	case a.wk = <-a.s.workers:
		a.dequeue()
		a.s.m.inflight.Inc()
		return true
	case <-ctx.Done():
		a.s.reject(w, a.req.Problem, queueFailureCode(ctx), "timed out waiting for a worker")
		return false
	}
}

// releaseWorker returns the worker to the pool ahead of release, so a
// buffered reply is encoded and written without holding solve capacity.
func (a *admitted) releaseWorker() {
	if a.wk != nil {
		a.s.m.inflight.Dec()
		a.s.workers <- a.wk
		a.wk = nil
	}
}

// release gives back everything the prelude and acquire took.
func (a *admitted) release() {
	a.releaseWorker()
	a.dequeue()
	a.cancel()
	<-a.s.queueSlots
	a.s.Leave()
}

// handleSolve is POST /v1/solve, the buffered tail behind the admission
// prelude: singleflight → acquire a worker → execute under the request
// deadline (with bounded retries) → account → encode one JSON reply.
func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	ctx, a, ok := s.admitRequest(w, r, EndpointSolve)
	if !ok {
		return
	}
	defer a.release()
	req := &a.req

	// Singleflight: identical in-flight solves collapse to one. The leader
	// solves and populates the cache; followers wait for its completion and
	// then serve from the cache. A leader that fails caches nothing, and
	// its followers fall through to solving independently.
	if s.cache != nil && CacheableKind(req.Problem) {
		var kb cache.KeyBuilder
		key := SolveKey(req, &kb)
		f, leader := s.cache.Join(key)
		switch {
		case leader:
			defer s.cache.Done(key)
		case f != nil:
			s.m.cacheFlightWaits.Inc()
			if err := f.Wait(ctx); err != nil {
				s.reject(w, req.Problem, queueFailureCode(ctx), "timed out waiting for an identical in-flight solve")
				return
			}
		}
	}

	if !a.acquire(ctx, w) {
		return
	}
	wk := a.wk
	resp := Response{Problem: req.Problem, QueueSeconds: since(a.enqueued)}

	started := now()
	solveErr := wk.run(ctx, req, &resp)
	// Transient-fault rungs are worth a bounded number of retries while the
	// worker is still held: a degraded solve under a transient fault spec
	// (or a non-client solve failure) may succeed cleanly on the next run.
	// Backoff is capped and jittered, and always bounded by the request
	// deadline.
	for retry := 0; retry < s.cfg.MaxRetries && s.shouldRetry(solveErr, &resp); retry++ {
		if !sleepBackoff(ctx, wk.rng, retry, s.cfg.RetryBackoff) {
			break
		}
		s.m.retries.Inc()
		resp = Response{Problem: req.Problem, QueueSeconds: resp.QueueSeconds}
		solveErr = wk.run(ctx, req, &resp)
	}
	resp.SolveSeconds = since(started)

	// account consumes resp.fallback, which aliases worker-owned ladder
	// storage — it must run before the worker can serve another request.
	code := s.account(req, &resp, solveErr)
	a.releaseWorker()
	resp.fallback = nil
	if solveErr != nil && code != http.StatusOK {
		resp.Error = solveErr.Error()
	}
	WriteJSON(w, code, &resp)
}

// account classifies the solve outcome into an HTTP status and feeds the
// metrics plane. Non-convergence is a completed solve (200, converged
// false): the client asked a question and got a faithful answer.
func (s *Server) account(req *Request, resp *Response, err error) int {
	code := http.StatusOK
	switch {
	case err == nil:
	case errors.Is(err, nonlin.ErrNoConvergence), errors.Is(err, nonlin.ErrDiverged):
		resp.Error = "solver did not converge: " + err.Error()
	case errors.Is(err, context.DeadlineExceeded):
		code = http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		// Client went away; the status is never seen but is still counted.
		code = http.StatusBadRequest
	case errors.Is(err, analog.ErrInsufficientHardware), isClientSolveError(err):
		code = http.StatusUnprocessableEntity
	default:
		code = http.StatusInternalServerError
	}
	s.m.requests.With(req.Problem, strconv.Itoa(code)).Inc()
	if fb := resp.fallback; fb != nil {
		for i := range fb.Attempts {
			s.m.ladderAttempts.With(string(fb.Attempts[i].Rung)).Inc()
		}
		s.m.seedsRejected.Add(uint64(fb.SeedRejections))
		if code == http.StatusOK && fb.Final != "" {
			s.m.ladderServed.With(string(fb.Final)).Inc()
			if fb.Degraded {
				s.m.degraded.Inc()
			}
		}
	}
	if code == http.StatusOK {
		s.m.solveLatency.Observe(resp.SolveSeconds)
		if (resp.Iterations > 0 || resp.cacheWarm) && !resp.cacheHit {
			// Replayed hits ran no Newton; observing them would double-count
			// the original solve's iterations. A warm-start serve is observed
			// even at zero iterations — "the continuation start was already
			// converged" is the best outcome the histogram can show.
			s.m.newtonIters.With(startSource(resp)).Observe(float64(resp.Iterations))
		}
		if resp.AnalogUsed && !resp.cacheHit {
			s.m.seedsTotal.Inc()
			if resp.SeedAccepted {
				s.m.seedsAccepted.Inc()
			}
		}
		if resp.cacheOn {
			switch {
			case resp.cacheHit:
				s.m.cacheHits.Inc()
			case resp.cacheWarm:
				s.m.cacheWarmHits.Inc()
			default:
				s.m.cacheMisses.Inc()
			}
			if resp.cacheStale {
				s.m.cacheStale.Inc()
			}
		}
	}
	return code
}

// startSource classifies where a solved (non-replayed) request's digital
// Newton start vector came from: the warm-start continuation rung, an
// accepted analog seed, or the cold pristine start.
func startSource(resp *Response) string {
	switch {
	case resp.cacheWarm:
		return "warm"
	case resp.AnalogUsed && !resp.SeedRejected:
		return "analog"
	default:
		return "cold"
	}
}

// shouldRetry decides whether another run of the same request on the same
// worker could plausibly do better: transient faults make degraded or
// rejected-seed outcomes luck-of-the-draw (the injector redraws burst
// activations every run), and non-client solve failures are worth one more
// attempt regardless. Context errors and client errors never retry.
func (s *Server) shouldRetry(err error, resp *Response) bool {
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) ||
			errors.Is(err, analog.ErrInsufficientHardware) || isClientSolveError(err) {
			return false
		}
		return true
	}
	return s.transientFaults && (resp.Degraded || resp.SeedRejected)
}

// sleepBackoff waits one rung of the capped exponential jittered backoff
// (base·2^attempt plus up to 50% jitter, capped at 250ms), returning false
// if ctx expires first. The RNG belongs to the worker held by this request,
// so drawing jitter from it is race-free; determinism of solves is
// unaffected because refill reseeds it per request.
func sleepBackoff(ctx context.Context, rng *rand.Rand, attempt int, base time.Duration) bool {
	d := base << attempt
	const capBackoff = 250 * time.Millisecond
	if d > capBackoff {
		d = capBackoff
	}
	d += time.Duration(rng.Int63n(int64(d)/2 + 1))
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// isClientSolveError recognises failures caused by the request content
// rather than the service: netlist parse/validation errors and capacity
// mismatches surface as positioned analog/core errors.
func isClientSolveError(err error) bool {
	msg := err.Error()
	return strings.Contains(msg, "netlist line") ||
		strings.Contains(msg, "exceeds accelerator capacity")
}

// queueFailureCode distinguishes a queue-wait deadline (504) from a client
// disconnect while queued.
func queueFailureCode(ctx context.Context) int {
	if errors.Is(ctx.Err(), context.DeadlineExceeded) {
		return http.StatusGatewayTimeout
	}
	return http.StatusBadRequest
}

// handleProblems is GET /v1/problems: the registry listing.
func (s *Server) handleProblems(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, Kinds(s.cfg.MaxGridN, s.cfg.MaxSteps))
}

// Health is the GET /healthz (readiness) body. Gateways parse it: Ready
// false means "stop routing here", and Reason says why — today always
// "draining", the BeginDrain signal that precedes the listener closing.
type Health struct {
	Ready  bool   `json:"ready"`
	Reason string `json:"reason,omitempty"`
}

// handleHealthz is GET /healthz: the *readiness* probe. 200 while the
// admission gate is open, 503 with a JSON body once BeginDrain has been
// called — so load balancers and the cluster gateway evict a draining
// backend before its listener closes, instead of discovering the closure
// as connection errors.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		WriteJSON(w, http.StatusServiceUnavailable, Health{Ready: false, Reason: "draining"})
		return
	}
	WriteJSON(w, http.StatusOK, Health{Ready: true})
}

// Livez is GET /livez on both tiers: the *liveness* probe. It answers 200
// for as long as the process can serve HTTP at all — including while
// draining — so orchestrators distinguish "shutting down cleanly, leave it
// alone" from "wedged, restart it".
func Livez(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// handleMetrics is GET /metrics: Prometheus text exposition.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if s.Draining() {
		s.m.draining.Set(1)
	}
	if s.cache != nil {
		s.m.cacheEntries.Set(int64(s.cache.Len()))
	}
	s.m.writeProm(w)
}

// reject counts and encodes an error-only response.
func (s *Server) reject(w http.ResponseWriter, problem string, code int, msg string) {
	if problem == "" {
		problem = "unknown"
	}
	s.m.requests.With(problem, strconv.Itoa(code)).Inc()
	WriteJSON(w, code, &Response{Problem: problem, Error: msg})
}

// WriteJSON commits the status and encodes v as the JSON body — the reply
// form of both tiers.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(code)
	// The status line is committed before encoding, so a failure here can
	// only mean the client hung up; the connection teardown reports that.
	json.NewEncoder(w).Encode(v)
}
