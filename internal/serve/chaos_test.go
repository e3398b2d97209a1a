package serve

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"hybridpde/internal/fault"
)

func mustSpec(t *testing.T, src string) *fault.Spec {
	t.Helper()
	spec, err := fault.ParseSpec(src)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

func scrapeMetrics(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	hr, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	b, err := io.ReadAll(hr.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// analogReq is the chaos-test workload: a 2×2 grid (8 unknowns) fits the
// prototype accelerator directly, so the planned rung is the analog seed.
var analogReq = Request{Problem: KindBurgers2D, N: 2, Seed: 3, Analog: true}

// TestChaosDegraded200 is the tentpole serving contract: permanent analog
// faults turn into 200 responses with the degraded flag and a lower rung,
// never into failures.
func TestChaosDegraded200(t *testing.T) {
	// Railed integrators drag the seed past the start residual, so the
	// default gate (reject seeds worse than the start) trips; stuck-at-start
	// integrators alone would freeze the seed at exactly the start residual,
	// which that gate deliberately tolerates.
	_, ts := newTestServer(t, Config{
		Workers: 1,
		Faults:  mustSpec(t, "railed *\nstuck 1\n"),
		// Gate a notch tighter so the frozen variable can't sneak through.
		SeedGate: 0.9,
	})
	code, resp, _ := postSolve(t, ts.URL, analogReq)
	if code != http.StatusOK {
		t.Fatalf("status %d (error %q), want 200 with degraded flag", code, resp.Error)
	}
	if !resp.Converged {
		t.Fatalf("degraded solve must still converge: %+v", resp)
	}
	if !resp.Degraded || resp.Rung != "digital" || !resp.SeedRejected {
		t.Fatalf("want degraded digital response, got degraded=%v rung=%q seed_rejected=%v",
			resp.Degraded, resp.Rung, resp.SeedRejected)
	}
	if resp.RungAttempts < 2 {
		t.Fatalf("want ≥ 2 rung attempts, got %d", resp.RungAttempts)
	}
	if resp.SeedAccepted {
		t.Fatal("a rejected seed must not be reported accepted")
	}

	page := scrapeMetrics(t, ts)
	for _, want := range []string{
		`pdeserve_ladder_attempts_total{rung="analog"} 1`,
		`pdeserve_ladder_attempts_total{rung="digital"} 1`,
		`pdeserve_ladder_served_total{rung="digital"} 1`,
		"pdeserve_degraded_total 1",
		"pdeserve_analog_seeds_rejected_total 1",
		"pdeserve_fault_injection_active 2",
	} {
		if !strings.Contains(page, want) {
			t.Errorf("metrics page missing %q", want)
		}
	}
}

// TestChaosHealthyPathUntouched pins the inverse: without faults the ladder
// serves from the first rung and no degradation surfaces anywhere.
func TestChaosHealthyPathUntouched(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	code, resp, _ := postSolve(t, ts.URL, analogReq)
	if code != http.StatusOK || !resp.Converged {
		t.Fatalf("healthy solve failed: %d %+v", code, resp)
	}
	if resp.Degraded || resp.SeedRejected || resp.Rung != "analog" {
		t.Fatalf("healthy solve reported degradation: %+v", resp)
	}
	page := scrapeMetrics(t, ts)
	for _, want := range []string{
		"pdeserve_degraded_total 0",
		"pdeserve_fault_injection_active 0",
		`pdeserve_ladder_served_total{rung="analog"} 1`,
	} {
		if !strings.Contains(page, want) {
			t.Errorf("metrics page missing %q", want)
		}
	}
}

// TestChaosTransientRetries: an always-on burst degrades every attempt, so
// the handler retries the full budget before serving the degraded result.
func TestChaosTransientRetries(t *testing.T) {
	_, ts := newTestServer(t, Config{
		Workers:      1,
		Faults:       mustSpec(t, "burst 1 30\n"),
		MaxRetries:   2,
		RetryBackoff: time.Millisecond,
	})
	code, resp, _ := postSolve(t, ts.URL, analogReq)
	if code != http.StatusOK || !resp.Converged {
		t.Fatalf("solve under burst failed: %d %+v", code, resp)
	}
	if !resp.Degraded {
		t.Fatalf("always-on burst must degrade the solve: %+v", resp)
	}
	page := scrapeMetrics(t, ts)
	if !strings.Contains(page, "pdeserve_retries_total 2") {
		t.Fatalf("want the full retry budget spent, metrics:\n%s", grepLines(page, "retries"))
	}
}

// TestChaosRetriesDisabled: a negative budget turns the retry loop off.
func TestChaosRetriesDisabled(t *testing.T) {
	_, ts := newTestServer(t, Config{
		Workers:    1,
		Faults:     mustSpec(t, "burst 1 30\n"),
		MaxRetries: -1,
	})
	code, resp, _ := postSolve(t, ts.URL, analogReq)
	if code != http.StatusOK || !resp.Degraded {
		t.Fatalf("want degraded 200, got %d %+v", code, resp)
	}
	if page := scrapeMetrics(t, ts); !strings.Contains(page, "pdeserve_retries_total 0") {
		t.Fatalf("retries must be disabled, metrics:\n%s", grepLines(page, "retries"))
	}
}

// TestChaosDeterminism: a fixed server seed reproduces the whole fault
// sequence, so identical requests to a one-worker server take identical
// ladder paths and produce bit-identical results.
func TestChaosDeterminism(t *testing.T) {
	run := func() Response {
		_, ts := newTestServer(t, Config{
			Workers:    1,
			Seed:       7,
			Faults:     mustSpec(t, "seed 3\nrailed 0\nadc-drift * 0.08 0.02\nburst 0.5 2 5 25\n"),
			MaxRetries: -1,
		})
		_, resp, _ := postSolve(t, ts.URL, analogReq)
		return resp
	}
	first := run()
	for i := 0; i < 2; i++ {
		again := run()
		if again.Residual != first.Residual || again.Rung != first.Rung ||
			again.SeedResidual != first.SeedResidual || again.Degraded != first.Degraded {
			t.Fatalf("chaos run diverged: %+v vs %+v", first, again)
		}
	}
}

// TestChaosNoServerErrors sweeps every registry grid kind and a spread of
// seeds under the built-in chaos spec: nothing may surface as a 5xx.
func TestChaosNoServerErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{
		Workers:      2,
		Faults:       fault.DefaultChaosSpec(),
		RetryBackoff: time.Millisecond,
	})
	reqs := []Request{
		{Problem: KindBurgers2D, N: 2, Analog: true},
		{Problem: KindBurgers2D, N: 4, Analog: true},
		{Problem: KindBurgersSteady, N: 4, Analog: true},
		{Problem: KindBurgers1D, N: 16, Analog: true},
		{Problem: KindBurgers2D, N: 3},
	}
	for seed := int64(1); seed <= 4; seed++ {
		for _, req := range reqs {
			req.Seed = seed
			code, resp, _ := postSolve(t, ts.URL, req)
			if code >= 500 {
				t.Fatalf("%s n=%d seed=%d: server error %d (%s)", req.Problem, req.N, seed, code, resp.Error)
			}
			if code != http.StatusOK {
				t.Fatalf("%s n=%d seed=%d: status %d (%s)", req.Problem, req.N, seed, code, resp.Error)
			}
		}
	}
}

// grepLines filters a metrics page to lines containing sub, for error
// messages that would otherwise dump the whole exposition.
func grepLines(page, sub string) string {
	var out []string
	for _, ln := range strings.Split(page, "\n") {
		if strings.Contains(ln, sub) {
			out = append(out, ln)
		}
	}
	return strings.Join(out, "\n")
}
