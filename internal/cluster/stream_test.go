package cluster

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"hybridpde/internal/serve"
)

// gwStreamResult is one fully-read stream exchange through the gateway.
type gwStreamResult struct {
	code    int
	header  http.Header
	lines   []string
	body    string // non-200 rejection body
	doneSum bool   // a summary line with "done":true arrived
	frames  int    // lines that are frames (carry "step", no "done")
}

func postGwStream(t *testing.T, url string, req serve.Request) gwStreamResult {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hr, err := http.Post(url+"/v1/stream", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	res := gwStreamResult{code: hr.StatusCode, header: hr.Header}
	if hr.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(hr.Body)
		res.body = string(b)
		return res
	}
	sc := bufio.NewScanner(hr.Body)
	sc.Buffer(make([]byte, 64*1024), 4*1024*1024)
	for sc.Scan() {
		line := sc.Text()
		res.lines = append(res.lines, line)
		var probe struct {
			Done *bool `json:"done"`
		}
		if json.Unmarshal([]byte(line), &probe) == nil && probe.Done != nil {
			res.doneSum = res.doneSum || *probe.Done
		} else {
			res.frames++
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return res
}

// TestGatewayStreamRelay: a stream through the gateway arrives frame by
// frame with the backend's content type, ends in a done summary, and moves
// the gateway's streaming metrics plane.
func TestGatewayStreamRelay(t *testing.T) {
	f := newTestFleet(t, 2, Config{})
	const steps = 4
	res := postGwStream(t, f.gwServer.URL, serve.Request{Problem: serve.KindBurgers2D, N: 4, Seed: 5, Steps: steps})
	if res.code != http.StatusOK {
		t.Fatalf("status %d body %q", res.code, res.body)
	}
	if ct := res.header.Get("Content-Type"); ct != serve.NDJSONContentType {
		t.Fatalf("Content-Type %q, want %q", ct, serve.NDJSONContentType)
	}
	if res.frames != steps || !res.doneSum {
		t.Fatalf("relay truncated: %d frames, done=%v", res.frames, res.doneSum)
	}

	page := scrape(t, f.gwServer.URL)
	for _, want := range []string{
		"pdegw_streams_proxied_total 1",
		"pdegw_stream_frames_total 5", // 4 frames + the summary line
		"pdegw_stream_failovers_total 0",
		"pdegw_stream_aborts_total 0",
	} {
		if !strings.Contains(page, want) {
			t.Fatalf("metrics missing %q:\n%s", want, page)
		}
	}
}

// holdAfterFirstFlush passes a backend's response through and, after the
// response's first flush (a stream's first frame), holds the handler until
// release closes: the rest of the trajectory cannot reach the wire before
// the test lets it.
type holdAfterFirstFlush struct {
	http.ResponseWriter
	release <-chan struct{}
	flushed bool
}

func (h *holdAfterFirstFlush) Flush() {
	h.ResponseWriter.(http.Flusher).Flush()
	if !h.flushed {
		h.flushed = true
		<-h.release
	}
}

// TestGatewayStreamFirstFrameWhileRunning: the relay hands the client each
// frame as the backend flushes it. The backend is held after its first
// frame until the client has read that frame through the gateway, so the
// trajectory is provably still running when it arrives; a relay that
// buffered the body would deliver nothing until the guard fails the test.
func TestGatewayStreamFirstFrameWhileRunning(t *testing.T) {
	f := newTestFleet(t, 1, Config{})
	release := make(chan struct{})
	var once sync.Once
	t.Cleanup(func() { once.Do(func() { close(release) }) }) // before the listeners close
	inner := f.servers[0].Handler()
	held := http.NewServeMux() // swapHandler stores one concrete type
	held.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		inner.ServeHTTP(&holdAfterFirstFlush{ResponseWriter: w, release: release}, r)
	})
	f.handlers[0].v.Store(held)

	// The deadline outlasts the guard below, so a buffering relay fails on
	// the guard rather than on a deadline that cuts the stream short.
	const steps = 8
	body, err := json.Marshal(serve.Request{Problem: serve.KindBurgers2D, N: 4, Seed: 5, Steps: steps, DeadlineMillis: 20000})
	if err != nil {
		t.Fatal(err)
	}
	type firstLine struct {
		resp *http.Response
		rd   *bufio.Reader
		line string
		err  error
	}
	got := make(chan firstLine, 1)
	go func() {
		resp, err := http.Post(f.gwServer.URL+"/v1/stream", "application/json", bytes.NewReader(body))
		if err != nil {
			got <- firstLine{err: err}
			return
		}
		rd := bufio.NewReader(resp.Body)
		line, err := rd.ReadString('\n')
		got <- firstLine{resp, rd, line, err}
	}()
	var first firstLine
	select {
	case first = <-got:
	case <-time.After(10 * time.Second): // a hang guard, not a latency bound
		t.Fatal("no frame reached the client while the backend held the rest of its trajectory")
	}
	if first.err != nil {
		t.Fatal(first.err)
	}
	defer first.resp.Body.Close()
	var frame serve.StreamFrame
	if err := json.Unmarshal([]byte(first.line), &frame); err != nil || frame.Step != 1 {
		t.Fatalf("first line %q is not frame 1 (%v)", first.line, err)
	}
	if v := sample(t, scrape(t, f.backends[0].URL), "pdeserve_streams_in_flight"); v != 1 {
		t.Fatalf("backend streams in flight = %d when frame 1 arrived, want 1", v)
	}

	once.Do(func() { close(release) })
	rest, err := io.ReadAll(first.rd)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(rest), "\n"), "\n")
	if len(lines) != steps || !strings.Contains(lines[steps-1], `"done":true`) {
		t.Fatalf("after frame 1: %d lines, want %d more frames and the done line:\n%s", len(lines), steps-1, rest)
	}
}

// TestGatewayStreamFailoverBeforeFirstByte: when the shape's owner fails
// with a failover-class status before committing any byte, the gateway
// walks to the ring successor and the client sees one clean 200 stream —
// never a 5xx, never a partial restart.
func TestGatewayStreamFailoverBeforeFirstByte(t *testing.T) {
	f := newTestFleet(t, 2, Config{ProbeInterval: time.Hour})
	req := serve.Request{Problem: serve.KindBurgers2D, N: 4, Seed: 8, Steps: 3}
	owner := f.ownerIndex(t, req)
	// swapHandler's atomic.Value needs a consistent concrete type, so the
	// dead backend is a mux too.
	dead := http.NewServeMux()
	dead.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusServiceUnavailable)
	})
	f.handlers[owner].v.Store(dead)

	res := postGwStream(t, f.gwServer.URL, req)
	if res.code != http.StatusOK {
		t.Fatalf("status %d body %q — failover before the first byte must stay invisible", res.code, res.body)
	}
	if res.frames != 3 || !res.doneSum {
		t.Fatalf("failed-over stream truncated: %d frames, done=%v", res.frames, res.doneSum)
	}

	page := scrape(t, f.gwServer.URL)
	if !strings.Contains(page, "pdegw_stream_failovers_total 1") {
		t.Fatalf("expected one stream failover in metrics:\n%s", page)
	}
	if !strings.Contains(page, `pdegw_requests_total{code="200"} 1`) {
		t.Fatalf("expected exactly one 200 at the gateway:\n%s", page)
	}
}

// TestGatewayStreamRepeatBitIdentity: the relay must not perturb payloads —
// repeated identical streams produce byte-identical frame lines through the
// gateway, whichever backend serves them.
func TestGatewayStreamRepeatBitIdentity(t *testing.T) {
	f := newTestFleet(t, 2, Config{})
	req := serve.Request{Problem: serve.KindBurgers1D, N: 32, Seed: 12, Steps: 4}
	first := postGwStream(t, f.gwServer.URL, req)
	if first.code != http.StatusOK || first.frames != 4 {
		t.Fatalf("first stream failed: %+v", first)
	}
	again := postGwStream(t, f.gwServer.URL, req)
	if len(again.lines) != len(first.lines) {
		t.Fatalf("repeat line count %d, want %d", len(again.lines), len(first.lines))
	}
	// Frame lines are deterministic; the summary line carries measured
	// wall times, so only the frames are compared byte for byte.
	for i := 0; i < first.frames; i++ {
		if again.lines[i] != first.lines[i] {
			t.Fatalf("frame line %d differs:\n%s\n%s", i, again.lines[i], first.lines[i])
		}
	}
}

// TestGatewayStreamValidationAndDrain: the gateway rejects invalid stream
// bodies itself (no backend round trip) and refuses new streams while
// draining.
func TestGatewayStreamValidationAndDrain(t *testing.T) {
	f := newTestFleet(t, 1, Config{})
	for _, tc := range []struct {
		name, wantErr string
		req           serve.Request
	}{
		{"steady kind", "no time loop", serve.Request{Problem: serve.KindBurgersSteady, N: 4, Steps: 2}},
		{"steps over cap", "-max-steps", serve.Request{Problem: serve.KindBurgers2D, N: 4, Steps: 100000}},
	} {
		res := postGwStream(t, f.gwServer.URL, tc.req)
		if res.code != http.StatusBadRequest || !strings.Contains(res.body, tc.wantErr) {
			t.Fatalf("%s: status %d body %q, want 400 mentioning %q", tc.name, res.code, res.body, tc.wantErr)
		}
	}

	f.gw.BeginDrain()
	res := postGwStream(t, f.gwServer.URL, serve.Request{Problem: serve.KindBurgers2D, N: 4, Steps: 2})
	if res.code != http.StatusServiceUnavailable {
		t.Fatalf("draining gateway answered %d to a new stream, want 503", res.code)
	}
}
