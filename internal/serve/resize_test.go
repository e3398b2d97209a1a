package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"hybridpde/internal/adapt"
)

func TestResizeGrowShrinkClamped(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, MinWorkers: 1, MaxWorkers: 4})
	if got := s.Workers(); got != 1 {
		t.Fatalf("initial workers = %d, want 1", got)
	}
	if got := s.Resize(3, adapt.ReasonQueue); got != 3 {
		t.Fatalf("resize to 3 achieved %d", got)
	}
	if got := s.Resize(100, adapt.ReasonShed); got != 4 {
		t.Fatalf("resize above max achieved %d, want clamp to 4", got)
	}
	if got := s.Resize(0, adapt.ReasonIdle); got != 1 {
		t.Fatalf("resize below min achieved %d, want clamp to 1", got)
	}

	// The pool still serves after the full up/down excursion.
	code, _, _ := postSolve(t, ts.URL, Request{Problem: KindBurgersSteady, N: 4, Seed: 7})
	if code != http.StatusOK {
		t.Fatalf("solve after resizes: status %d", code)
	}
	page := scrapeMetrics(t, ts)
	for _, want := range []string{
		"pdeserve_workers 1",
		`pdeserve_resizes_total{direction="up",reason="queue"} 1`,
		`pdeserve_resizes_total{direction="up",reason="shed"} 1`,
		`pdeserve_resizes_total{direction="down",reason="idle"} 1`,
	} {
		if !strings.Contains(page, want) {
			t.Fatalf("metrics missing %q:\n%s", want, page)
		}
	}
}

// TestResizeBitIdentity: a server that has lived through an arbitrary
// resize history answers every request bit-identically to a fixed-size
// pool — scaling is a capacity decision, never a numerical one.
func TestResizeBitIdentity(t *testing.T) {
	elastic, ets := newTestServer(t, Config{Workers: 1, MinWorkers: 1, MaxWorkers: 3})
	_, fts := newTestServer(t, Config{Workers: 2})

	history := []int{3, 1, 2, 3, 1}
	step := 0
	for i := 0; i < 15; i++ {
		if i%3 == 0 {
			elastic.Resize(history[step], "test")
			step++
		}
		req := Request{Problem: KindBurgersSteady, N: 5, Seed: int64(100 + i)}
		_, er, _ := postSolve(t, ets.URL, req)
		_, fr, _ := postSolve(t, fts.URL, req)
		if er.Residual != fr.Residual || er.Iterations != fr.Iterations || er.Dim != fr.Dim {
			t.Fatalf("seed %d diverged across resize history: %+v vs %+v", req.Seed, er, fr)
		}
	}
}

// TestShrinkRetiresOnlyIdleWorkers: Resize blocks until a worker is idle —
// a busy worker finishes its solve before it can be parked — and the
// composition with BeginDrain leaves a consistent pool.
func TestShrinkRetiresOnlyIdleWorkers(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 2, MinWorkers: 1, MaxWorkers: 2})

	// Check both workers out, standing in for two solves in flight.
	busy1 := <-s.workers
	busy2 := <-s.workers

	s.BeginDrain()
	done := make(chan int)
	go func() { done <- s.Resize(1, adapt.ReasonIdle) }()

	select {
	case <-done:
		t.Fatal("shrink completed while every worker was mid-solve")
	case <-time.After(50 * time.Millisecond):
	}

	// First solve finishes: its worker returns to the pool and is the one
	// the shrink retires.
	s.workers <- busy1
	select {
	case got := <-done:
		if got != 1 {
			t.Fatalf("shrink achieved %d, want 1", got)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("shrink did not complete after a worker went idle")
	}
	s.workers <- busy2

	if got := s.Workers(); got != 1 {
		t.Fatalf("workers after drain+shrink = %d, want 1", got)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain after shrink: %v", err)
	}
}

// TestScaleUpWhileQueueFull: a request already waiting for a worker is
// served by the worker a concurrent scale-up adds — growth absorbs queued
// work immediately, without re-admission.
func TestScaleUpWhileQueueFull(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, MinWorkers: 1, MaxWorkers: 2, QueueDepth: 4})

	// Starve the pool so the next request queues.
	busy := <-s.workers
	type result struct {
		code int
		err  error
	}
	done := make(chan result, 1)
	go func() {
		code, _, _, err := trySolve(ts.URL, Request{Problem: KindBurgersSteady, N: 4, Seed: 5})
		done <- result{code, err}
	}()

	// The request can only be waiting: the sole worker is checked out.
	select {
	case r := <-done:
		t.Fatalf("request completed with a starved pool: %+v", r)
	case <-time.After(100 * time.Millisecond):
	}

	if got := s.Resize(2, adapt.ReasonQueue); got != 2 {
		t.Fatalf("scale-up achieved %d", got)
	}
	select {
	case r := <-done:
		if r.err != nil || r.code != http.StatusOK {
			t.Fatalf("queued request after scale-up: code=%d err=%v", r.code, r.err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("queued request never ran on the scaled-up pool")
	}
	s.workers <- busy
}

// TestAutoscalerScalesPoolUpAndBack: adapt's controller at its default
// thresholds, fed this server's own signals, grows the pool off its floor
// while requests queue and retires the extra worker once the pool idles.
func TestAutoscalerScalesPoolUpAndBack(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, MinWorkers: 1, MaxWorkers: 2, QueueDepth: 8})
	ctrl := adapt.New(adapt.Config{Min: 1, Max: 2})
	tick := func() {
		if d := ctrl.Tick(s.Observe()); d.Reason != "" {
			s.Resize(d.Target, d.Reason)
		}
	}

	busy := <-s.workers // starve the pool so every request queues
	const queued = 4    // adapt's default scale-up queue depth
	codes := make(chan int, queued)
	for i := 0; i < queued; i++ {
		go func(i int) {
			code, _, _, _ := trySolve(ts.URL, Request{Problem: KindBurgersSteady, N: 4, Seed: int64(i)})
			codes <- code
		}(i)
	}
	deadline := time.Now().Add(10 * time.Second)
	for s.Observe().QueueDepth < queued {
		if time.Now().After(deadline) {
			t.Fatalf("queue depth %d, want %d", s.Observe().QueueDepth, queued)
		}
		time.Sleep(time.Millisecond)
	}
	tick()
	if got := s.Workers(); got != 2 {
		t.Fatalf("workers after a tick at queue depth %d = %d, want 2", queued, got)
	}
	s.workers <- busy
	for i := 0; i < queued; i++ {
		if code := <-codes; code != http.StatusOK {
			t.Fatalf("queued request: status %d", code)
		}
	}
	for i := 0; s.Workers() > 1; i++ {
		if i == 1000 {
			t.Fatal("an idle pool never shrank back to its floor")
		}
		tick()
	}
	page := scrapeMetrics(t, ts)
	for _, want := range []string{
		"pdeserve_workers 1",
		`pdeserve_resizes_total{direction="up",reason="queue"} 1`,
		`pdeserve_resizes_total{direction="down",reason="idle"} 1`,
	} {
		if !strings.Contains(page, want) {
			t.Fatalf("metrics missing %q:\n%s", want, page)
		}
	}
}

// TestChaosWithAutoscaler: the tick-driven controller resizing a pool
// under injected faults and concurrent load never surfaces a server error
// and lands back inside its bounds. Run with -race, this is also the
// autoscaler's data-race probe.
func TestChaosWithAutoscaler(t *testing.T) {
	s, ts := newTestServer(t, Config{
		Workers:    1,
		MinWorkers: 1,
		MaxWorkers: 4,
		QueueDepth: 16,
		Faults:     mustSpec(t, "seed 3\nrailed 0\nadc-drift * 0.08 0.02\nburst 0.5 2 5 25\n"),
	})

	ctx, cancel := context.WithCancel(context.Background())
	ticks := make(chan time.Time)
	ctrl := adapt.New(adapt.Config{Min: 1, Max: 4, ScaleUpQueue: 1, CooldownTicks: 1, IdleTicks: 2})
	var ctrlDone sync.WaitGroup
	ctrlDone.Add(1)
	go func() {
		defer ctrlDone.Done()
		adapt.Run(ctx, ticks, ctrl, s)
	}()

	const loaders = 6
	var wg sync.WaitGroup
	codes := make(chan int, loaders*8)
	for i := 0; i < loaders; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 8; j++ {
				code, _, _, err := trySolve(ts.URL, Request{
					Problem: KindBurgers2D, N: 4, Seed: int64(i*100 + j), Analog: true, AnalogVars: 2,
				})
				if err == nil {
					codes <- code
				}
			}
		}(i)
	}

	feeding := make(chan struct{})
	go func() {
		defer close(feeding)
		for i := 0; i < 40; i++ {
			select {
			case ticks <- time.Time{}:
			case <-ctx.Done():
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
	}()

	wg.Wait()
	<-feeding
	cancel()
	ctrlDone.Wait()
	close(codes)

	for code := range codes {
		if code >= 500 {
			t.Fatalf("server error %d under chaos + autoscaler", code)
		}
	}
	if got := s.Workers(); got < 1 || got > 4 {
		t.Fatalf("workers %d escaped [1, 4]", got)
	}
}

// postSolveWithBudget posts a solve with the gateway's deadline-budget
// header attached.
func postSolveWithBudget(t *testing.T, url, budget string, req Request) (int, Response) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hr, err := http.NewRequest(http.MethodPost, url+"/v1/solve", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	hr.Header.Set("Content-Type", "application/json")
	hr.Header.Set(DeadlineBudgetHeader, budget)
	resp, err := http.DefaultClient.Do(hr)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out Response
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

func TestDeadlineBudgetSpentRejectsBeforeAdmission(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	code, resp := postSolveWithBudget(t, ts.URL, "0", Request{Problem: KindBurgersSteady, N: 4})
	if code != http.StatusGatewayTimeout {
		t.Fatalf("spent budget: status %d, want 504 (%+v)", code, resp)
	}
	page := scrapeMetrics(t, ts)
	if !strings.Contains(page, "pdeserve_deadline_budget_rejects_total 1") {
		t.Fatalf("budget reject not counted:\n%s", page)
	}
}

func TestDeadlineBudgetClampsTimeout(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, DefaultTimeout: 10 * time.Second})
	code, resp := postSolveWithBudget(t, ts.URL, "3000", Request{Problem: KindBurgersSteady, N: 4, Seed: 9})
	if code != http.StatusOK {
		t.Fatalf("clamped solve: status %d (%+v)", code, resp)
	}
	page := scrapeMetrics(t, ts)
	if !strings.Contains(page, "pdeserve_deadline_budget_clamped_total 1") {
		t.Fatalf("budget clamp not counted:\n%s", page)
	}
	// A budget looser than the resolved deadline must not count as a clamp.
	code, _ = postSolveWithBudget(t, ts.URL, "60000", Request{Problem: KindBurgersSteady, N: 4, Seed: 10})
	if code != http.StatusOK {
		t.Fatalf("loose-budget solve: status %d", code)
	}
	page = scrapeMetrics(t, ts)
	if !strings.Contains(page, "pdeserve_deadline_budget_clamped_total 1") {
		t.Fatalf("loose budget was counted as a clamp:\n%s", page)
	}
}
