// Command pdeserved runs the hybrid-solve HTTP service (internal/serve).
//
// Usage:
//
//	pdeserved [-addr :8080] [-debug-addr 127.0.0.1:8081] [-workers N]
//	          [-min-workers N] [-max-workers N] [-scale-interval D]
//	          [-queue N] [-max-grid N] [-timeout D] [-max-timeout D]
//	          [-seed N] [-drain-timeout D] [-chaos] [-chaos-spec SPEC]
//	          [-retries N] [-cache-size N] [-max-steps N]
//
// The API listener serves POST /v1/solve, POST /v1/stream (NDJSON transient
// trajectories, one frame line per time step), GET /v1/problems,
// GET /healthz and GET /metrics (Prometheus text exposition). The debug listener, bound
// to loopback by default, adds net/http/pprof. On SIGINT/SIGTERM the
// server stops admitting work (healthz flips to 503 so load balancers
// de-route), finishes every admitted solve, and exits 0; solves still
// running past -drain-timeout are abandoned and the exit code is 1.
//
// -chaos injects the built-in fault specification (internal/fault
// DefaultChaosText) into every worker accelerator; -chaos-spec replaces it
// with an inline spec text or, with an @ prefix, a spec file. Faulty seeds
// are caught by the degradation ladder and served from a lower rung with
// the degraded flag set, never a 5xx.
//
// -max-workers above -min-workers arms the autoscaler (internal/adapt): a
// tick-driven controller samples queue depth, shed rate and solve latency
// every -scale-interval and resizes the worker pool inside
// [-min-workers, -max-workers] with internal/adapt's default thresholds.
// Each solve runs serial, so keep -max-workers within GOMAXPROCS.
// Responses are bit-identical at every pool size.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"hybridpde/internal/adapt"
	"hybridpde/internal/fault"
	"hybridpde/internal/serve"
)

func main() {
	var (
		addr          = flag.String("addr", ":8080", "API listen address")
		debugAddr     = flag.String("debug-addr", "127.0.0.1:8081", "pprof/debug listen address (empty disables)")
		workers       = flag.Int("workers", 0, "initial solve workers (0 = -min-workers if set, else GOMAXPROCS)")
		minWorkers    = flag.Int("min-workers", 0, "autoscaler floor on the worker pool (0 = pin at -workers)")
		maxWorkers    = flag.Int("max-workers", 0, "autoscaler ceiling on the worker pool (0 = pin at -workers)")
		scaleInterval = flag.Duration("scale-interval", 250*time.Millisecond, "autoscaler controller tick period (0 disables the autoscaler)")
		queue         = flag.Int("queue", 64, "admission queue depth beyond the worker count")
		maxGrid       = flag.Int("max-grid", 12, "largest 2-D grid size a request may ask for")
		timeout       = flag.Duration("timeout", 5*time.Second, "default per-request deadline")
		maxTimeout    = flag.Duration("max-timeout", 30*time.Second, "clamp on client-supplied deadlines")
		seed          = flag.Int64("seed", 1, "base seed for worker fabrics and accelerators")
		drainTimeout  = flag.Duration("drain-timeout", 30*time.Second, "how long shutdown waits for in-flight solves")
		chaos         = flag.Bool("chaos", false, "inject the built-in fault spec into every worker accelerator")
		chaosSpec     = flag.String("chaos-spec", "", "fault spec text, or @file to load one (implies -chaos)")
		retries       = flag.Int("retries", 0, "per-request retries of transient-fault solves (0 = default 2, negative disables)")
		cacheSize     = flag.Int("cache-size", 0, "solve-cache entry bound (0 = default 4096, negative disables the cache)")
		maxSteps      = flag.Int("max-steps", 0, "cap on a POST /v1/stream trajectory's step count (0 = default 256)")
	)
	flag.Parse()

	faults, err := loadFaultSpec(*chaos, *chaosSpec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pdeserved:", err)
		os.Exit(2)
	}
	if faults != nil {
		fmt.Fprintf(os.Stderr, "pdeserved: chaos mode: %d fault classes injected\n", len(faults.Faults))
	}

	initialWorkers := *workers
	if initialWorkers == 0 && *minWorkers > 0 {
		// With an autoscaler range configured, start at the floor and let
		// load earn the extra workers.
		initialWorkers = *minWorkers
	}
	s := serve.NewServer(serve.Config{
		Workers:        initialWorkers,
		MinWorkers:     *minWorkers,
		MaxWorkers:     *maxWorkers,
		QueueDepth:     *queue,
		MaxGridN:       *maxGrid,
		DefaultTimeout: *timeout,
		MaxTimeout:     *maxTimeout,
		Seed:           *seed,
		Faults:         faults,
		MaxRetries:     *retries,
		CacheEntries:   *cacheSize,
		MaxSteps:       *maxSteps,
	})

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *maxWorkers > *minWorkers && *maxWorkers > 1 && *scaleInterval > 0 {
		ctrl := adapt.New(adapt.Config{Min: *minWorkers, Max: *maxWorkers})
		ticker := time.NewTicker(*scaleInterval)
		defer ticker.Stop()
		go adapt.Run(ctx, ticker.C, ctrl, s)
		fmt.Fprintf(os.Stderr, "pdeserved: autoscaler armed: %d..%d workers, tick %s\n",
			*minWorkers, *maxWorkers, *scaleInterval)
	}

	api := &http.Server{Addr: *addr, Handler: s.Handler()}
	errc := make(chan error, 2)
	go func() {
		fmt.Fprintf(os.Stderr, "pdeserved: serving on %s\n", *addr)
		errc <- api.ListenAndServe()
	}()
	var debug *http.Server
	if *debugAddr != "" {
		debug = &http.Server{Addr: *debugAddr, Handler: s.DebugHandler()}
		go func() {
			fmt.Fprintf(os.Stderr, "pdeserved: debug/pprof on %s\n", *debugAddr)
			errc <- debug.ListenAndServe()
		}()
	}

	select {
	case <-ctx.Done():
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "pdeserved:", err)
			os.Exit(1)
		}
		return
	}
	stop() // a second signal kills the process immediately

	fmt.Fprintln(os.Stderr, "pdeserved: draining")
	s.BeginDrain()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := api.Shutdown(shutdownCtx); err != nil {
		fmt.Fprintln(os.Stderr, "pdeserved: shutdown:", err)
	}
	if debug != nil {
		debug.Shutdown(shutdownCtx)
	}
	if err := s.Drain(shutdownCtx); err != nil {
		fmt.Fprintln(os.Stderr, "pdeserved: drain incomplete:", err)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "pdeserved: drained cleanly")
}

// loadFaultSpec resolves the chaos flags into a fault spec: nil when chaos
// is off, the built-in spec for bare -chaos, or a parsed -chaos-spec value
// (inline text, or @file to read one).
func loadFaultSpec(chaos bool, specArg string) (*fault.Spec, error) {
	if specArg == "" {
		if !chaos {
			return nil, nil
		}
		return fault.DefaultChaosSpec(), nil
	}
	text := specArg
	if specArg[0] == '@' {
		b, err := os.ReadFile(specArg[1:])
		if err != nil {
			return nil, fmt.Errorf("chaos spec: %w", err)
		}
		text = string(b)
	}
	spec, err := fault.ParseSpec(text)
	if err != nil {
		return nil, fmt.Errorf("chaos spec: %w", err)
	}
	return spec, nil
}
