package cluster

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"strconv"

	"hybridpde/internal/cache"
	"hybridpde/internal/serve"
)

// outcome is what one upstream exchange — a dispatch attempt or a health
// probe — says about its backend. Three values, not two: an attempt that
// ended for the client's reasons is evidence of nothing, and booking it as
// a success would close breakers and re-add backends that never earned it.
type outcome int

const (
	// backendAnswered: any status outside the failover class (429 and 504
	// included).
	backendAnswered outcome = iota
	// backendFailed: transport error, 500/502/503, or a body that broke off
	// mid-read. Charged to the backend; the walk moves on.
	backendFailed
	// notAttributable: the deadline was spent before dispatch, or the
	// request context died (deadline, client gone) mid-exchange.
	notAttributable
)

// failover is the one failover walk both endpoints take. try runs one
// attempt (counted from 0) against one backend and returns its buffered
// result, its outcome, and whether the client has already been answered (a
// committed stream). The walk owns the rest: it tries the shape's ring
// successors in health.order's tiers, and skips backends whose breaker is
// open (or whose half-open trial is taken) outright, with no attempt and
// no token; every attempt after the first must withdraw a retry-budget
// token, and an empty bucket is an explicit 429 instead of amplified load
// on a browning-out fleet; every outcome is observed; a failed attempt
// walks on only while the request still has time. Unless answered, the
// result is what the client is owed.
func (g *Gateway) failover(ctx context.Context, shape cache.Key,
	try func(url string, attempt int) (res dispatchResult, o outcome, answered bool)) (dispatchResult, bool) {
	g.budget.deposit()
	attempts := 0
	last := dispatchResult{err: errors.New("no backend available")}
	for _, url := range g.health.order(g.ring.Successors(shape)) {
		ok, trial := g.health.allow(url)
		if !ok {
			continue
		}
		if attempts > 0 {
			if !g.budget.withdraw() {
				g.m.retryBudgetDenied.Inc()
				return dispatchResult{
					status:     http.StatusTooManyRequests,
					retryAfter: "1",
					err:        errors.New("retry budget exhausted: backend failed and failover retries are capped"),
				}, false
			}
			g.m.retryBudgetSpent.Inc()
			g.m.failovers.Inc()
		}
		inflight := g.m.backendInflight.With(url)
		inflight.Inc()
		res, o, answered := try(url, attempts)
		inflight.Dec()
		attempts++
		g.health.observe(url, o, trial)
		if answered || o != backendFailed {
			return res, answered
		}
		if ctx.Err() != nil {
			return dispatchResult{err: ctx.Err()}, false
		}
		last = res
	}
	return last, false
}

// open starts one upstream attempt: the single place a backend request is
// built, told its deadline budget, sent, and its status classified. The
// caller consumes and closes a non-nil response.
func (g *Gateway) open(ctx context.Context, url string, ep serve.Endpoint, body []byte) (*http.Response, outcome, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+string(ep), bytes.NewReader(body))
	if err != nil {
		return nil, backendFailed, err
	}
	req.Header.Set("Content-Type", "application/json")
	// Tell the backend how much of the deadline this attempt has left
	// (failover attempts see progressively smaller budgets), so it refuses
	// doomed work at admission instead of burning Newton iterations on it.
	if d, ok := ctx.Deadline(); ok {
		ms := untilDeadline(d).Milliseconds()
		if ms <= 0 {
			return nil, notAttributable, context.DeadlineExceeded
		}
		req.Header.Set(serve.DeadlineBudgetHeader, strconv.FormatInt(ms, 10))
	}
	g.m.backendRouted.With(url).Inc()
	resp, err := g.cfg.Client.Do(req)
	if err != nil {
		o, err := g.transportFailure(ctx, url, err)
		return nil, o, err
	}
	g.m.backendRequests.With(url, strconv.Itoa(resp.StatusCode)).Inc()
	switch resp.StatusCode {
	case http.StatusInternalServerError, http.StatusBadGateway, http.StatusServiceUnavailable:
		g.m.backendFailures.With(url).Inc()
		return resp, backendFailed, nil
	}
	return resp, backendAnswered, nil
}

// transportFailure classifies a failed send or body read: the client's (and
// reported as the context's error) when the request context is dead,
// otherwise the backend's, and counted against it.
func (g *Gateway) transportFailure(ctx context.Context, url string, err error) (outcome, error) {
	if ctx.Err() != nil {
		return notAttributable, ctx.Err()
	}
	g.m.backendFailures.With(url).Inc()
	return backendFailed, err
}

// collect buffers an opened response into the result a buffered reply
// relays; o is open's classification, overridden when the body breaks off.
func (g *Gateway) collect(ctx context.Context, url string, resp *http.Response, o outcome) (dispatchResult, outcome) {
	payload, err := io.ReadAll(io.LimitReader(resp.Body, maxUpstreamBytes))
	if err != nil {
		o, err = g.transportFailure(ctx, url, err)
		return dispatchResult{err: err}, o
	}
	return dispatchResult{
		status:     resp.StatusCode,
		body:       payload,
		retryAfter: resp.Header.Get("Retry-After"),
	}, o
}

// dispatch is the buffered tail's walk (the batcher's dispatchFunc): each
// attempt's reply is collected whole; when every candidate fails, the last
// failure is what the client sees.
func (g *Gateway) dispatch(ctx context.Context, shape cache.Key, body []byte) dispatchResult {
	res, _ := g.failover(ctx, shape, func(url string, _ int) (dispatchResult, outcome, bool) {
		resp, o, err := g.open(ctx, url, serve.EndpointSolve, body)
		if resp == nil {
			return dispatchResult{err: err}, o, false
		}
		defer resp.Body.Close()
		res, o := g.collect(ctx, url, resp, o)
		return res, o, false
	})
	return res
}
