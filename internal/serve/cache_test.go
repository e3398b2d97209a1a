package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// rawSolve posts a solve request and returns the raw response body, for
// byte-level identity assertions.
func rawSolve(t *testing.T, url string, req Request) (int, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hr, err := http.Post(url+"/v1/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	raw, err := io.ReadAll(hr.Body)
	if err != nil {
		t.Fatal(err)
	}
	return hr.StatusCode, raw
}

// stripMeasured removes the measured wall-time fields — the only fields
// that legitimately differ between a solve and its replay.
func stripMeasured(t *testing.T, raw []byte) string {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatalf("unmarshal %q: %v", raw, err)
	}
	delete(m, "queue_seconds")
	delete(m, "solve_seconds")
	out, err := json.Marshal(m) // maps marshal with sorted keys: canonical
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// TestCacheHitByteIdentical is the replay contract: an exact-repeat
// request is served from the cache with a byte-identical body (modulo the
// measured wall-time fields), and the hit is visible in /metrics.
func TestCacheHitByteIdentical(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	reqs := []Request{
		{Problem: KindBurgersSteady, N: 5, Seed: 42},
		{Problem: KindBurgers2D, N: 4, Seed: 7, Analog: true},
		{Problem: KindBurgers1D, N: 32, Seed: 3},
	}
	for _, req := range reqs {
		code, cold := rawSolve(t, ts.URL, req)
		if code != http.StatusOK {
			t.Fatalf("%s: cold status %d: %s", req.Problem, code, cold)
		}
		for i := 0; i < 2; i++ {
			code, warm := rawSolve(t, ts.URL, req)
			if code != http.StatusOK {
				t.Fatalf("%s: repeat status %d: %s", req.Problem, code, warm)
			}
			if got, want := stripMeasured(t, warm), stripMeasured(t, cold); got != want {
				t.Fatalf("%s: replayed body diverged:\n cold: %s\n warm: %s", req.Problem, want, got)
			}
		}
	}
	if hits := s.m.cacheHits.Value(); hits != uint64(2*len(reqs)) {
		t.Fatalf("cache hits = %d, want %d", hits, 2*len(reqs))
	}
	if misses := s.m.cacheMisses.Value(); misses != uint64(len(reqs)) {
		t.Fatalf("cache misses = %d, want %d", misses, len(reqs))
	}
	body := scrapeMetrics(t, ts)
	for _, want := range []string{
		"pdeserve_cache_hits_total 6",
		"pdeserve_cache_misses_total 3",
		"pdeserve_cache_entries 3",
		`pdeserve_ladder_served_total{rung="cache"} 6`,
		`pdeserve_ladder_attempts_total{rung="cache"} 6`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics missing %q:\n%s", want, body)
		}
	}
}

// TestCacheWarmStartSweep is the continuation contract: a parameter sweep
// (same field realisation, nearby re) is served by the warm-start rung in
// measurably fewer Newton iterations than the cold solve of the same
// point, and the iteration histogram splits by start source. Under a
// strict seed gate the cached neighbour is found and then rejected: the
// sweep point is counted stale and served, degraded but converged, by
// digital Newton.
func TestCacheWarmStartSweep(t *testing.T) {
	for _, tc := range []struct {
		problem string
		gate    float64 // Config.SeedGate; 0 is the default, 1
		rung    string  // the rung that serves the sweep point
	}{
		{problem: KindBurgersSteady, rung: "warm-start"},
		{problem: KindBurgers2D, gate: 1, rung: "warm-start"},
		{problem: KindBurgers2D, gate: 1e-3, rung: "digital"},
	} {
		name := fmt.Sprintf("%s gate %g", tc.problem, tc.gate)
		s, ts := newTestServer(t, Config{Workers: 1, SeedGate: tc.gate})
		base := Request{Problem: tc.problem, N: 5, Seed: 11, Re: 1.0}
		code, cold, _ := postSolve(t, ts.URL, base)
		if code != http.StatusOK || !cold.Converged {
			t.Fatalf("%s: cold base solve failed: %d %+v", name, code, cold)
		}

		next := base
		next.Re = 1.01 // within the default warm radius of the cached point
		code, warm, _ := postSolve(t, ts.URL, next)
		if code != http.StatusOK || !warm.Converged {
			t.Fatalf("%s: sweep solve failed: %d %+v", name, code, warm)
		}
		if warm.Rung != tc.rung {
			t.Fatalf("%s: sweep point served by %q, want %q (%+v)", name, warm.Rung, tc.rung, warm)
		}
		body := scrapeMetrics(t, ts)
		if tc.rung != "warm-start" {
			// The gate rejected the cached neighbour: a stale candidate,
			// not a warm hit, and a degradation below the planned rung.
			if !warm.Degraded {
				t.Fatalf("%s: a rejected warm start must report degraded (%+v)", name, warm)
			}
			if w := s.m.cacheWarmHits.Value(); w != 0 {
				t.Fatalf("%s: warm hits = %d, want 0", name, w)
			}
			if !strings.Contains(body, "pdeserve_cache_stale_total 1\n") {
				t.Fatalf("%s: metrics missing pdeserve_cache_stale_total 1:\n%s", name, body)
			}
			continue
		}

		// Cold control: the same sweep point on a cache-free server.
		_, tsOff := newTestServer(t, Config{Workers: 1, CacheEntries: -1, SeedGate: tc.gate})
		codeOff, coldNext, _ := postSolve(t, tsOff.URL, next)
		if codeOff != http.StatusOK || !coldNext.Converged {
			t.Fatalf("%s: cold control solve failed: %d %+v", name, codeOff, coldNext)
		}
		if warm.Degraded {
			t.Fatalf("%s: a warm-start serve is the planned first rung, not a degradation", name)
		}
		if warm.Iterations >= coldNext.Iterations {
			t.Fatalf("%s: warm start took %d Newton iterations, cold control took %d — no continuation win",
				name, warm.Iterations, coldNext.Iterations)
		}
		if w := s.m.cacheWarmHits.Value(); w != 1 {
			t.Fatalf("%s: warm hits = %d, want 1", name, w)
		}
		for _, want := range []string{
			"pdeserve_cache_warm_hits_total 1",
			"pdeserve_cache_stale_total 0\n",
			`pdeserve_newton_iterations_count{start="warm"} 1`,
			`pdeserve_newton_iterations_count{start="cold"} 1`,
			`pdeserve_ladder_served_total{rung="warm-start"} 1`,
		} {
			if !strings.Contains(body, want) {
				t.Fatalf("%s: metrics missing %q:\n%s", name, want, body)
			}
		}
	}
}

// TestCacheOffIdentity is the standing determinism contract: cache-off
// responses are identical to cold cache-on responses, and repeated
// cache-off solves stay bit-identical to each other.
func TestCacheOffIdentity(t *testing.T) {
	// One worker each: with several workers, which fabric (mismatch draw
	// Seed+i) serves an analog request depends on load, not the request.
	_, tsOn := newTestServer(t, Config{Workers: 1})
	_, tsOff := newTestServer(t, Config{Workers: 1, CacheEntries: -1})
	reqs := []Request{
		{Problem: KindBurgersSteady, N: 5, Seed: 9},
		{Problem: KindBurgers2D, N: 4, Seed: 5, Analog: true},
		{Problem: KindBurgers1D, N: 48, Seed: 2},
	}
	for _, req := range reqs {
		codeOn, on := rawSolve(t, tsOn.URL, req)
		codeOff, off := rawSolve(t, tsOff.URL, req)
		if codeOn != http.StatusOK || codeOff != http.StatusOK {
			t.Fatalf("%s: status on=%d off=%d", req.Problem, codeOn, codeOff)
		}
		if got, want := stripMeasured(t, on), stripMeasured(t, off); got != want {
			t.Fatalf("%s: cold cache-on diverged from cache-off:\n  on: %s\n off: %s", req.Problem, got, want)
		}
		_, offAgain := rawSolve(t, tsOff.URL, req)
		if got, want := stripMeasured(t, offAgain), stripMeasured(t, off); got != want {
			t.Fatalf("%s: repeated cache-off solve diverged", req.Problem)
		}
	}
}

// TestDrainWithSingleflightWaiters pins graceful shutdown against the
// singleflight plane: BeginDrain while N identical requests share one
// in-flight solve must complete every waiter exactly once — one real
// solve, the rest served from the cache — with no goroutine left behind.
func TestDrainWithSingleflightWaiters(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 16})
	req := Request{Problem: KindBurgersSteady, N: 5, Seed: 77}

	g0 := runtime.NumGoroutine()
	// Steal the only worker so every request parks: the first in
	// acquireWorker as the flight leader, the rest in Flight.Wait.
	wk := <-s.workers

	const n = 4
	var wg sync.WaitGroup
	codes := make([]int, n)
	resps := make([]Response, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			code, resp, _, err := trySolve(ts.URL, req)
			if err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			codes[i], resps[i] = code, resp
		}(i)
	}

	// Wait until all n are admitted (queueDepth counts admitted requests
	// that have not yet claimed a worker) and the n-1 followers have joined
	// the leader's flight; the leader cannot finish while the worker is
	// held here, so this rendezvous is race-free.
	deadline := time.Now().Add(5 * time.Second)
	for s.m.queueDepth.Value() != n || s.m.cacheFlightWaits.Value() != n-1 {
		if time.Now().After(deadline) {
			t.Fatalf("admitted %d/%d, flight waits %d/%d", s.m.queueDepth.Value(), n,
				s.m.cacheFlightWaits.Value(), n-1)
		}
		time.Sleep(time.Millisecond)
	}

	s.BeginDrain()
	s.workers <- wk // release the worker; the drain must now complete
	wg.Wait()

	for i, code := range codes {
		if code != http.StatusOK || !resps[i].Converged {
			t.Fatalf("request %d: code %d, %+v", i, code, resps[i])
		}
		if resps[i].Residual != resps[0].Residual {
			t.Fatalf("waiter %d diverged from leader: %+v vs %+v", i, resps[i], resps[0])
		}
	}
	if waits := s.m.cacheFlightWaits.Value(); waits != n-1 {
		t.Fatalf("flight waits = %d, want %d", waits, n-1)
	}
	if hits := s.m.cacheHits.Value(); hits != n-1 {
		t.Fatalf("cache hits = %d, want %d (exactly one real solve)", hits, n-1)
	}
	if misses := s.m.cacheMisses.Value(); misses != 1 {
		t.Fatalf("cache misses = %d, want 1", misses)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain did not complete: %v", err)
	}
	if code, _, _ := postSolve(t, ts.URL, req); code != http.StatusServiceUnavailable {
		t.Fatalf("post-drain request got %d, want 503", code)
	}

	// No goroutine may outlive the drained requests (keep-alive client
	// connections are recycled explicitly so the count can settle).
	deadline = time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > g0+2 {
		http.DefaultClient.CloseIdleConnections()
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d now vs %d before", runtime.NumGoroutine(), g0)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestServerCacheHitPathZeroAlloc extends the steady-path contract to the
// cache plane: once a request identity is cached, the whole worker path —
// key construction, exact lookup, replay — allocates nothing.
func TestServerCacheHitPathZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counting is not meaningful under -race")
	}
	s := NewServer(Config{Workers: 1})
	wk := <-s.workers
	req := Request{Problem: KindBurgersSteady, N: 5, Seed: 8}
	if err := Normalize(&req, s.cfg.MaxGridN); err != nil {
		t.Fatal(err)
	}
	var resp Response
	if err := wk.run(context.Background(), &req, &resp); err != nil {
		t.Fatal(err) // cold solve: fills the shape cache and the solve cache
	}
	if resp.cacheHit {
		t.Fatal("first solve cannot be a hit")
	}
	allocs := testing.AllocsPerRun(10, func() {
		resp = Response{}
		if err := wk.run(context.Background(), &req, &resp); err != nil {
			t.Error(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("cache-hit path allocated %.1f allocs/op, want 0", allocs)
	}
	if !resp.cacheHit || !resp.Converged {
		t.Fatalf("warm run must be a converged cache hit: %+v", resp)
	}
}

// TestServerCacheOffSteadyPathZeroAlloc pins that disabling the cache
// restores the original allocation-free steady path (the rungs skip
// without a trace).
func TestServerCacheOffSteadyPathZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counting is not meaningful under -race")
	}
	s := NewServer(Config{Workers: 1, CacheEntries: -1})
	wk := <-s.workers
	req := Request{Problem: KindBurgersSteady, N: 5, Seed: 8}
	if err := Normalize(&req, s.cfg.MaxGridN); err != nil {
		t.Fatal(err)
	}
	var resp Response
	if err := wk.run(context.Background(), &req, &resp); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		resp = Response{}
		if err := wk.run(context.Background(), &req, &resp); err != nil {
			t.Error(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("cache-off steady path allocated %.1f allocs/op, want 0", allocs)
	}
	if resp.cacheOn || resp.cacheHit {
		t.Fatalf("cache-off solve consulted the cache: %+v", resp)
	}
}
