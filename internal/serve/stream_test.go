package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"hybridpde/internal/core"
	"hybridpde/internal/pde"
)

// streamResult is one fully-read POST /v1/stream exchange.
type streamResult struct {
	code    int
	header  http.Header
	frames  []StreamFrame
	summary *StreamSummary
	body    string // non-200 rejection body
}

// tryStream posts a stream request and reads it to completion without
// failing the test (safe from non-test goroutines).
func tryStream(url string, req Request) (streamResult, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return streamResult{}, err
	}
	hr, err := http.Post(url+"/v1/stream", "application/json", bytes.NewReader(body))
	if err != nil {
		return streamResult{}, err
	}
	defer hr.Body.Close()
	res := streamResult{code: hr.StatusCode, header: hr.Header}
	if hr.StatusCode != http.StatusOK {
		b, rerr := io.ReadAll(hr.Body)
		res.body = string(b)
		return res, rerr
	}
	sc := bufio.NewScanner(hr.Body)
	sc.Buffer(make([]byte, 64*1024), 4*1024*1024)
	for sc.Scan() {
		line := sc.Bytes()
		// The summary is the only line carrying "done"; a pointer target
		// distinguishes present-false from absent.
		var probe struct {
			Done *bool `json:"done"`
		}
		if err := json.Unmarshal(line, &probe); err != nil {
			return res, err
		}
		if probe.Done != nil {
			var sum StreamSummary
			if err := json.Unmarshal(line, &sum); err != nil {
				return res, err
			}
			res.summary = &sum
			continue
		}
		var f StreamFrame
		if err := json.Unmarshal(line, &f); err != nil {
			return res, err
		}
		res.frames = append(res.frames, f)
	}
	return res, sc.Err()
}

func postStream(t *testing.T, url string, req Request) streamResult {
	t.Helper()
	res, err := tryStream(url, req)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// metricValue extracts an unlabelled counter/gauge value from a /metrics
// scrape, failing if the family is absent.
func metricValue(t *testing.T, url, name string) float64 {
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
	m := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + ` (\S+)$`).FindSubmatch(b)
	if m == nil {
		t.Fatalf("metric %s missing from scrape", name)
	}
	v, err := strconv.ParseFloat(string(m[1]), 64)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

var hex16 = regexp.MustCompile(`^[0-9a-f]{16}$`)

func TestStreamRoundtrip(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	for _, req := range []Request{
		{Problem: KindBurgers2D, N: 4, Seed: 3, Steps: 5, Dt: 0.5},
		{Problem: KindBurgers1D, N: 32, Seed: 3, Steps: 5, Dt: 0.5},
	} {
		res := postStream(t, ts.URL, req)
		if res.code != http.StatusOK {
			t.Fatalf("%s: status %d, body %q", req.Problem, res.code, res.body)
		}
		if ct := res.header.Get("Content-Type"); ct != NDJSONContentType {
			t.Fatalf("%s: Content-Type %q, want %q", req.Problem, ct, NDJSONContentType)
		}
		if len(res.frames) != req.Steps {
			t.Fatalf("%s: %d frames, want %d", req.Problem, len(res.frames), req.Steps)
		}
		for i, f := range res.frames {
			if f.Step != i+1 || f.T != float64(i+1)*req.Dt {
				t.Fatalf("%s: frame %d mislabelled: %+v", req.Problem, i, f)
			}
			if !f.Converged || f.Residual >= 1e-9 {
				t.Fatalf("%s: frame %d not converged to tolerance: %+v", req.Problem, i, f)
			}
			if !hex16.MatchString(f.Checksum) {
				t.Fatalf("%s: frame %d checksum %q is not 16 hex digits", req.Problem, i, f.Checksum)
			}
			if f.U != nil {
				t.Fatalf("%s: frame %d carries a solution without include_solution", req.Problem, i)
			}
		}
		sum := res.summary
		if sum == nil || !sum.Done || sum.Frames != req.Steps || sum.Error != "" {
			t.Fatalf("%s: bad summary: %+v", req.Problem, sum)
		}
		if sum.Refactorizations < 1 || sum.Refactorizations >= sum.LinearSolves {
			t.Fatalf("%s: chord reuse missing: %d refactorizations of %d linear solves",
				req.Problem, sum.Refactorizations, sum.LinearSolves)
		}
		if sum.ModelSeconds <= 0 || sum.Dim == 0 {
			t.Fatalf("%s: summary accounting incomplete: %+v", req.Problem, sum)
		}
	}
}

// TestStreamMatchesOfflineTimeLoop is the stream-vs-buffered bit-identity
// contract end to end: the frames a streaming client receives must carry
// the exact solution bits an offline core.TimeLoop produces for the same
// request — same field draws, chord mode, pure-digital path.
func TestStreamMatchesOfflineTimeLoop(t *testing.T) {
	const (
		n     = 4
		steps = 3
		seed  = 7
	)
	_, ts := newTestServer(t, Config{Workers: 1, SolveProcs: 1})
	res := postStream(t, ts.URL, Request{
		Problem: KindBurgers2D, N: n, Seed: seed, Steps: steps, IncludeSolution: true,
	})
	if res.code != http.StatusOK || len(res.frames) != steps {
		t.Fatalf("stream failed: code %d, %d frames", res.code, len(res.frames))
	}

	// Offline replica of the worker's fixture: same constructor, same
	// refill draw order (UPrev, VPrev, RHS0, RHS1 at the default bound),
	// same chord time loop — but plain Solve, no ladder, fresh workspace.
	b, err := pde.NewBurgers(n, 1)
	if err != nil {
		t.Fatal(err)
	}
	b.Order = 2
	rng := rand.New(rand.NewSource(0))
	rng.Seed(seed)
	draw := func(dst []float64) {
		for i := range dst {
			dst[i] = defaultBound * (2*rng.Float64() - 1)
		}
	}
	draw(b.UPrev)
	draw(b.VPrev)
	draw(b.RHS0)
	draw(b.RHS1)

	var opts core.Options
	opts.SkipAnalog = true
	opts.Newton.Chord = true
	opts.Procs = 1
	// A workspace is what carries the chord factorization across steps;
	// without one each Solve would start cold and refactor.
	opts.Workspace = core.NewWorkspace()
	step := 0
	_, err = core.TimeLoop(nil, b, opts, core.TimeLoopOptions{Steps: steps}, func(f *core.Frame) error {
		got := res.frames[step]
		if want := streamChecksum(f.U); got.Checksum != want {
			t.Fatalf("step %d: streamed checksum %s, offline %s", f.Step, got.Checksum, want)
		}
		if len(got.U) != len(f.U) {
			t.Fatalf("step %d: streamed %d unknowns, offline %d", f.Step, len(got.U), len(f.U))
		}
		for i := range f.U {
			if got.U[i] != f.U[i] {
				t.Fatalf("step %d: U[%d] = %x, want %x", f.Step, i, got.U[i], f.U[i])
			}
		}
		if got.Iterations != f.Iterations || got.Refactorizations != f.Refactorizations {
			t.Fatalf("step %d: work accounting diverged: stream %+v vs offline %+v", f.Step, got, f)
		}
		step++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestStreamRepeatFrameBitIdentity is the streaming registry contract:
// identical stream requests produce byte-identical frame lines, whichever
// (possibly warm) worker serves them. Summary wall-time fields may differ.
func TestStreamRepeatFrameBitIdentity(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	req := Request{Problem: KindBurgers2D, N: 4, Seed: 42, Steps: 4}
	first := postStream(t, ts.URL, req)
	if first.code != http.StatusOK {
		t.Fatalf("status %d", first.code)
	}
	for rep := 0; rep < 3; rep++ {
		again := postStream(t, ts.URL, req)
		if len(again.frames) != len(first.frames) {
			t.Fatalf("repeat %d: %d frames, want %d", rep, len(again.frames), len(first.frames))
		}
		for i := range first.frames {
			a, b := first.frames[i], again.frames[i]
			if a.Checksum != b.Checksum || a.Residual != b.Residual ||
				a.Iterations != b.Iterations || a.Refactorizations != b.Refactorizations {
				t.Fatalf("repeat %d frame %d differs: %+v vs %+v", rep, i, b, a)
			}
		}
	}
}

func TestStreamValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, MaxGridN: 8, MaxSteps: 16})
	solveRejects := []struct {
		name string
		req  Request
	}{
		{"steps", Request{Problem: KindBurgers2D, N: 4, Steps: 3}},
		{"dt", Request{Problem: KindBurgers2D, N: 4, Dt: 0.5}},
		{"include_solution", Request{Problem: KindBurgers2D, N: 4, IncludeSolution: true}},
	}
	for _, tc := range solveRejects {
		code, resp, _ := postSolve(t, ts.URL, tc.req)
		if code != http.StatusBadRequest || !strings.Contains(resp.Error, "streaming field") {
			t.Fatalf("solve with %s: status %d error %q, want 400 naming a streaming field", tc.name, code, resp.Error)
		}
	}

	streamRejects := []struct {
		name, wantErr string
		req           Request
	}{
		{"steady kind", "no time loop", Request{Problem: KindBurgersSteady, N: 4, Steps: 2}},
		{"netlist kind", "no time loop", Request{Problem: KindNetlist, Netlist: testNetlist}},
		{"steps over cap", "-max-steps", Request{Problem: KindBurgers2D, N: 4, Steps: 17}},
		{"negative steps", "-max-steps", Request{Problem: KindBurgers2D, N: 4, Steps: -1}},
		{"negative dt", "dt", Request{Problem: KindBurgers2D, N: 4, Dt: -0.5}},
	}
	for _, tc := range streamRejects {
		res := postStream(t, ts.URL, tc.req)
		if res.code != http.StatusBadRequest || !strings.Contains(res.body, tc.wantErr) {
			t.Fatalf("stream with %s: status %d body %q, want 400 mentioning %q", tc.name, res.code, res.body, tc.wantErr)
		}
	}
}

// TestStreamClientDisconnectFreesWorker: a client that hangs up mid-stream
// must not pin the worker — the solve aborts between frames, the solver
// goroutine drains out, and the only worker serves the next request.
func TestStreamClientDisconnectFreesWorker(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	body, err := json.Marshal(Request{Problem: KindBurgers2D, N: 6, Seed: 5, Steps: 256})
	if err != nil {
		t.Fatal(err)
	}
	hr, err := http.Post(ts.URL+"/v1/stream", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("status %d", hr.StatusCode)
	}
	// Read one frame so the stream is demonstrably mid-trajectory, then
	// hang up.
	br := bufio.NewReader(hr.Body)
	if _, err := br.ReadBytes('\n'); err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()

	deadline := time.Now().Add(10 * time.Second)
	for {
		code, resp, _, err := trySolve(ts.URL, Request{Problem: KindBurgers2D, N: 4, Seed: 1})
		if err == nil && code == http.StatusOK && resp.Converged {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("worker still pinned after disconnect: last code %d err %v", code, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestStreamBeginDrainFinishesActive: BeginDrain must let a committed
// stream run to its summary line while refusing new streams and solves.
func TestStreamBeginDrainFinishesActive(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	const steps = 24

	started := make(chan struct{})
	done := make(chan streamResult, 1)
	go func() {
		body, _ := json.Marshal(Request{Problem: KindBurgers2D, N: 6, Seed: 9, Steps: steps})
		hr, err := http.Post(ts.URL+"/v1/stream", "application/json", bytes.NewReader(body))
		if err != nil {
			close(started)
			done <- streamResult{}
			return
		}
		defer hr.Body.Close()
		res := streamResult{code: hr.StatusCode}
		sc := bufio.NewScanner(hr.Body)
		sc.Buffer(make([]byte, 64*1024), 4*1024*1024)
		first := true
		for sc.Scan() {
			var probe struct {
				Done *bool `json:"done"`
			}
			if json.Unmarshal(sc.Bytes(), &probe) == nil && probe.Done != nil {
				var sum StreamSummary
				if json.Unmarshal(sc.Bytes(), &sum) == nil {
					res.summary = &sum
				}
				continue
			}
			var f StreamFrame
			if json.Unmarshal(sc.Bytes(), &f) == nil {
				res.frames = append(res.frames, f)
			}
			if first {
				first = false
				close(started)
			}
		}
		done <- res
	}()

	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("stream never produced a first frame")
	}
	s.BeginDrain()

	res := postStream(t, ts.URL, Request{Problem: KindBurgers2D, N: 4, Steps: 2})
	if res.code != http.StatusServiceUnavailable {
		t.Fatalf("new stream during drain: status %d, want 503", res.code)
	}

	active := <-done
	if active.code != http.StatusOK {
		t.Fatalf("active stream status %d", active.code)
	}
	if active.summary == nil || !active.summary.Done || len(active.frames) != steps {
		t.Fatalf("active stream did not finish cleanly under drain: %d frames, summary %+v",
			len(active.frames), active.summary)
	}
}

// TestStreamMetricsAccounting: one finished stream must move every counter
// of the streaming metrics plane, and the in-flight gauge must return to
// zero.
func TestStreamMetricsAccounting(t *testing.T) {
	const steps = 4
	_, ts := newTestServer(t, Config{Workers: 1})
	res := postStream(t, ts.URL, Request{Problem: KindBurgers2D, N: 4, Seed: 11, Steps: steps})
	if res.code != http.StatusOK || res.summary == nil || !res.summary.Done {
		t.Fatalf("stream failed: %+v", res)
	}

	if v := metricValue(t, ts.URL, "pdeserve_frames_streamed_total"); v != float64(steps) {
		t.Fatalf("frames_streamed_total = %v, want %d", v, steps)
	}
	if v := metricValue(t, ts.URL, "pdeserve_streams_in_flight"); v != 0 {
		t.Fatalf("streams_in_flight = %v after completion", v)
	}
	refac := metricValue(t, ts.URL, "pdeserve_jacobian_refactorizations_total")
	reuse := metricValue(t, ts.URL, "pdeserve_jacobian_reuses_total")
	if refac < 1 || reuse < 1 {
		t.Fatalf("reuse counters flat: refactorizations %v, reuses %v", refac, reuse)
	}
	if float64(res.summary.Refactorizations) != refac {
		t.Fatalf("summary refactorizations %d disagree with metric %v", res.summary.Refactorizations, refac)
	}
	if v := metricValue(t, ts.URL, "pdeserve_first_frame_seconds_count"); v != 1 {
		t.Fatalf("first_frame_seconds_count = %v, want 1", v)
	}
	if v := metricValue(t, ts.URL, "pdeserve_frame_solve_seconds_count"); v != float64(steps) {
		t.Fatalf("frame_solve_seconds_count = %v, want %d", v, steps)
	}
	if v := metricValue(t, ts.URL, "pdeserve_streams_aborted_total"); v != 0 {
		t.Fatalf("streams_aborted_total = %v for a clean stream", v)
	}
}
