// Command pdegw runs the fleet gateway (internal/cluster) in front of N
// pdeserved backends.
//
// Usage:
//
//	pdegw -backends http://127.0.0.1:18081,http://127.0.0.1:18082 \
//	      [-addr :8090] [-max-grid N] [-max-steps N]
//	      [-probe-interval D]
//	      [-batch-window D] [-max-batch N] [-drain-timeout D]
//	      [-retry-budget F] [-retry-budget-max F]
//	      [-timeout D] [-max-timeout D]
//
// The gateway serves POST /v1/solve (shape-affine consistent-hash routed,
// same-shape batched, ring-successor failover), POST /v1/stream (same
// routing, batching bypassed, flush-through NDJSON relay, failover only
// before the first byte), GET /v1/problems (proxied
// to a healthy backend), GET /healthz (readiness: not draining and at
// least one healthy backend), GET /livez, GET /metrics (the pdegw_*
// metrics plane) and GET /cluster (per-backend health snapshot). On
// SIGINT/SIGTERM the gateway stops admitting work (healthz flips to 503),
// relays every admitted request to completion, and exits 0; requests
// still in flight past -drain-timeout are abandoned and the exit code
// is 1. Backends are never drained by the gateway — kill them directly.
//
// Failure isolation: each backend has one health record, a circuit
// breaker (closed → open after 3 consecutive failures →
// half-open trial after 2 prober sweeps, doubling per failed trial up to
// 16). A backend is healthy while its breaker is closed and it has not
// failed since its last success; healthy backends are tried first. Failover
// retries draw from a token bucket refilled at -retry-budget tokens per
// primary dispatch (negative disables refill). An exhausted budget answers 429, never a
// 5xx. The remaining request deadline is forwarded to backends per
// attempt via the X-Pde-Deadline-Budget header.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"hybridpde/internal/cluster"
)

func main() {
	var (
		addr          = flag.String("addr", ":8090", "gateway listen address")
		backends      = flag.String("backends", "", "comma-separated pdeserved base URLs (required)")
		maxGrid       = flag.Int("max-grid", 12, "largest 2-D grid size a request may ask for (mirror the backends)")
		maxSteps      = flag.Int("max-steps", 0, "cap on a stream's step count, mirroring the backends (0 = default 256)")
		probeInterval = flag.Duration("probe-interval", 500*time.Millisecond, "health probe period")
		batchWindow   = flag.Duration("batch-window", 2*time.Millisecond, "same-shape coalescing window (negative disables batching)")
		maxBatch      = flag.Int("max-batch", 8, "largest same-shape batch; a full window flushes early")
		drainTimeout  = flag.Duration("drain-timeout", 30*time.Second, "how long shutdown waits for in-flight requests")

		retryBudget    = flag.Float64("retry-budget", 0, "retry tokens deposited per primary dispatch (0 = default 0.1, negative disables refill)")
		retryBudgetMax = flag.Float64("retry-budget-max", 0, "retry token bucket cap and starting balance (0 = default 32)")
		timeout        = flag.Duration("timeout", 0, "default request deadline when the body carries no deadline_ms (0 = default 5s)")
		maxTimeout     = flag.Duration("max-timeout", 0, "clamp on client-supplied deadlines (0 = default 30s)")
	)
	flag.Parse()

	urls, err := parseBackends(*backends)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pdegw:", err)
		os.Exit(2)
	}

	g, err := cluster.New(cluster.Config{
		Backends:      urls,
		MaxGridN:      *maxGrid,
		MaxSteps:      *maxSteps,
		ProbeInterval: *probeInterval,
		BatchWindow:   *batchWindow,
		MaxBatch:      *maxBatch,

		RetryBudgetRatio: *retryBudget,
		RetryBudgetMax:   *retryBudgetMax,
		DefaultTimeout:   *timeout,
		MaxTimeout:       *maxTimeout,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "pdegw:", err)
		os.Exit(2)
	}

	api := &http.Server{Addr: *addr, Handler: g.Handler()}
	errc := make(chan error, 1)
	go func() {
		fmt.Fprintf(os.Stderr, "pdegw: serving on %s, fronting %d backends\n", *addr, len(urls))
		errc <- api.ListenAndServe()
	}()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case <-ctx.Done():
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "pdegw:", err)
			os.Exit(1)
		}
		return
	}
	stop() // a second signal kills the process immediately

	fmt.Fprintln(os.Stderr, "pdegw: draining")
	g.BeginDrain()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := api.Shutdown(shutdownCtx); err != nil {
		fmt.Fprintln(os.Stderr, "pdegw: shutdown:", err)
	}
	drainErr := g.Drain(shutdownCtx)
	g.Close()
	if drainErr != nil {
		fmt.Fprintln(os.Stderr, "pdegw: drain incomplete:", drainErr)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "pdegw: drained cleanly")
}

// parseBackends splits and validates the -backends list: non-empty,
// scheme-prefixed entries with any trailing slash trimmed (the gateway
// appends paths).
func parseBackends(s string) ([]string, error) {
	if s == "" {
		return nil, fmt.Errorf("-backends is required (comma-separated pdeserved base URLs)")
	}
	parts := strings.Split(s, ",")
	urls := make([]string, 0, len(parts))
	for _, p := range parts {
		u := strings.TrimRight(strings.TrimSpace(p), "/")
		if u == "" {
			continue
		}
		if !strings.HasPrefix(u, "http://") && !strings.HasPrefix(u, "https://") {
			return nil, fmt.Errorf("backend %q: need an http:// or https:// base URL", u)
		}
		urls = append(urls, u)
	}
	if len(urls) == 0 {
		return nil, fmt.Errorf("-backends is required (comma-separated pdeserved base URLs)")
	}
	return urls, nil
}
