//pdevet:allow walltime a load generator's whole job is measuring real wall-clock latency
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"hybridpde/internal/serve"
)

// maxResidual is the certified-residual ceiling every served solve and frame
// must meet to count as correct.
const maxResidual = 1e-9

// connCounter counts the load generator's open client connections, so a run
// can show it never held more than nproc.
type connCounter struct {
	cur, peak atomic.Int64
}

func (c *connCounter) dial(ctx context.Context, network, addr string) (net.Conn, error) {
	var d net.Dialer
	conn, err := d.DialContext(ctx, network, addr)
	if err != nil {
		return nil, err
	}
	n := c.cur.Add(1)
	for {
		p := c.peak.Load()
		if n <= p || c.peak.CompareAndSwap(p, n) {
			break
		}
	}
	return &countedConn{Conn: conn, c: c}, nil
}

type countedConn struct {
	net.Conn
	c    *connCounter
	once sync.Once
}

func (cc *countedConn) Close() error {
	cc.once.Do(func() { cc.c.cur.Add(-1) })
	return cc.Conn.Close()
}

// pool is the load generator: n lanes sharing one keep-alive transport capped
// at n connections per host. Callers run at most n requests at once and call
// idle() before changing target, so the total never exceeds n.
type pool struct {
	n     int
	hc    *http.Client
	tr    *http.Transport
	conns connCounter
	lanes []*lane
}

func newPool(n int) *pool {
	p := &pool{n: n}
	p.tr = &http.Transport{
		DialContext:         p.conns.dial,
		MaxConnsPerHost:     n,
		MaxIdleConnsPerHost: n,
		DisableCompression:  true,
	}
	p.hc = &http.Client{Transport: p.tr}
	for i := 0; i < n; i++ {
		p.lanes = append(p.lanes, &lane{p: p})
	}
	return p
}

// idle drops the keep-alive connections to the previous target.
func (p *pool) idle() { p.tr.CloseIdleConnections() }

// lane is one client's reusable state.
type lane struct {
	p       *pool
	buf     bytes.Buffer
	br      *bufio.Reader
	frameAt []time.Time
	sums    []string
}

// result is one completed (or failed) operation as the client saw it.
type result struct {
	sent, first, done time.Time
	// fail is why the operation does not count as correct ("" when it does).
	fail string
	// model, queue and solve are the reply's (or stream summary's) reported
	// seconds.
	model, queue, solve float64
	// frames counts frame lines; frameAt (lane-owned, valid until the lane's
	// next call) holds their arrival times and sums their checksums.
	frames  int
	frameAt []time.Time
	sums    []string
	body    []byte // buffered reply, lane-owned
}

// stripTimings cuts a /v1/solve body before its measured-time fields: what
// precedes them must be byte-identical between a solve and its replays.
func stripTimings(body []byte) []byte {
	if i := bytes.Index(body, []byte(`"queue_seconds"`)); i >= 0 {
		return body[:i]
	}
	return body
}

// solve posts one buffered request and checks the reply: 200, converged, not
// degraded, residual within the ceiling, and — when ref is set — identical to
// the set-up pass apart from the measured times.
func (l *lane) solve(url string, body, ref []byte) result {
	var r result
	r.sent = time.Now()
	resp, err := l.p.hc.Post(url+"/v1/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		r.done = time.Now()
		r.fail = "transport: " + err.Error()
		return r
	}
	r.first = time.Now()
	l.buf.Reset()
	_, err = l.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	r.done = time.Now()
	r.body = l.buf.Bytes()
	if err != nil {
		r.fail = "transport: " + err.Error()
		return r
	}
	if resp.StatusCode != http.StatusOK {
		r.fail = fmt.Sprintf("status %d: %s", resp.StatusCode, bytes.TrimSpace(r.body))
		return r
	}
	var rep serve.Response
	if err := json.Unmarshal(r.body, &rep); err != nil {
		r.fail = "undecodable reply: " + err.Error()
		return r
	}
	r.model, r.queue, r.solve = rep.ModelSeconds, rep.QueueSeconds, rep.SolveSeconds
	r.frames = 1
	switch {
	case rep.Error != "":
		r.fail = "reply error: " + rep.Error
	case !rep.Converged:
		r.fail = "not converged"
	case rep.Degraded:
		r.fail = "degraded (rung " + rep.Rung + ")"
	case !(rep.Residual <= maxResidual):
		r.fail = fmt.Sprintf("residual %g above %g", rep.Residual, maxResidual)
	case ref != nil && !bytes.Equal(stripTimings(r.body), ref):
		r.fail = "replay differs from the set-up pass"
	}
	return r
}

// streamLine is the union of a frame line and the summary line.
type streamLine struct {
	Step      int      `json:"step"`
	Residual  *float64 `json:"residual"`
	Converged bool     `json:"converged"`
	Degraded  bool     `json:"degraded"`
	Checksum  string   `json:"checksum"`

	Done         *bool   `json:"done"`
	Frames       int     `json:"frames"`
	ModelSeconds float64 `json:"model_seconds"`
	QueueSeconds float64 `json:"queue_seconds"`
	SolveSeconds float64 `json:"solve_seconds"`
	Error        string  `json:"error"`
}

// stream posts one trajectory and reads it line by line as the server
// flushes: exactly steps good frames in order, then a done:true summary.
func (l *lane) stream(url string, body []byte, steps int) result {
	var r result
	r.sent = time.Now()
	resp, err := l.p.hc.Post(url+"/v1/stream", "application/json", bytes.NewReader(body))
	if err != nil {
		r.done = time.Now()
		r.fail = "transport: " + err.Error()
		return r
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<12)) // diagnostic only
		r.first, r.done = time.Now(), time.Now()
		r.fail = fmt.Sprintf("status %d: %s", resp.StatusCode, bytes.TrimSpace(b))
		return r
	}
	if l.br == nil {
		l.br = bufio.NewReaderSize(resp.Body, 1<<16)
	} else {
		l.br.Reset(resp.Body)
	}
	l.frameAt, l.sums = l.frameAt[:0], l.sums[:0]
	done := false
	// Read to EOF even after the summary, so the connection is reused.
	for {
		line, err := l.br.ReadSlice('\n')
		at := time.Now()
		if len(line) > 0 {
			var sl streamLine
			switch jerr := json.Unmarshal(line, &sl); {
			case jerr != nil:
				r.fail = "undecodable line: " + jerr.Error()
			case done:
				r.fail = "line after the summary"
			case sl.Done != nil:
				done = true
				r.done = at
				r.model, r.queue, r.solve = sl.ModelSeconds, sl.QueueSeconds, sl.SolveSeconds
				switch {
				case !*sl.Done:
					r.fail = "stream ended early: " + sl.Error
				case sl.Frames != steps || len(l.frameAt) != steps:
					r.fail = fmt.Sprintf("%d frames (summary says %d), want %d", len(l.frameAt), sl.Frames, steps)
				}
			default:
				l.frame(&r, &sl, at)
			}
		}
		if err != nil {
			break
		}
	}
	if r.done.IsZero() {
		r.done = time.Now()
	}
	if r.first.IsZero() {
		r.first = r.done
	}
	if !done && r.fail == "" {
		r.fail = "stream truncated: no summary line"
	}
	r.frames, r.frameAt, r.sums = len(l.frameAt), l.frameAt, l.sums
	return r
}

// frame records one frame line and checks it.
func (l *lane) frame(r *result, sl *streamLine, at time.Time) {
	if len(l.frameAt) == 0 {
		r.first = at
	}
	l.frameAt = append(l.frameAt, at)
	l.sums = append(l.sums, sl.Checksum)
	switch {
	case sl.Step != len(l.frameAt):
		r.fail = fmt.Sprintf("frame %d arrived at position %d", sl.Step, len(l.frameAt))
	case !sl.Converged:
		r.fail = fmt.Sprintf("frame %d not converged", sl.Step)
	case sl.Degraded:
		r.fail = fmt.Sprintf("frame %d degraded", sl.Step)
	case sl.Residual == nil || !(*sl.Residual <= maxResidual):
		r.fail = fmt.Sprintf("frame %d residual above %g", sl.Step, maxResidual)
	}
}

// do runs one input of workload w against url.
func (l *lane) do(w *workload, url string, in input, refs [][]byte) result {
	if w.stream {
		return l.stream(url, in.body, w.steps)
	}
	var ref []byte
	if in.ident >= 0 && refs != nil {
		ref = refs[in.ident]
	}
	return l.solve(url, in.body, ref)
}

// sample is one operation's timings, in milliseconds unless named otherwise.
type sample struct {
	ok                bool
	dueAt             time.Duration // when latency counts from, since the phase start
	lateMs            float64       // dispatch time − due time (open loop)
	latencyMs, ttffMs float64       // from the due time (open loop) or the send time
	modelMs           float64
	queueMs, solveMs  float64
	frames            int
}

// frame is the arrival of one good frame (a buffered reply is one frame).
type frame struct {
	at time.Duration // since the phase start
	// gapMs is the wait for it: since the previous frame of its response,
	// or for the first since the request was due (open loop) or sent.
	gapMs float64
}

// phaseResult is what one load phase observed.
type phaseResult struct {
	samples  []sample
	frames   []frame
	failures []string // first few failure reasons
	elapsed  time.Duration
	ticks    []tick // the clocks read every sliceLen, first at 0, last at the end
}

// tick is one reading of the process CPU clock and of the hypervisor's steal
// counter during a phase.
type tick struct {
	at    time.Duration // since the phase start
	cpu   time.Duration
	steal float64
}

// sliceLen is how often a phase reads the clocks.
const sliceLen = 500 * time.Millisecond

// watch reads the clocks every sliceLen from start until stop is closed, and
// once more then.
func watch(start time.Time, stop <-chan struct{}) []tick {
	read := func() tick { return tick{time.Since(start), processCPU(), stealTicks()} }
	ticks := []tick{read()}
	t := time.NewTicker(sliceLen)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			ticks = append(ticks, read())
		case <-stop:
			return append(ticks, read())
		}
	}
}

// slice is the stretch of a phase between two ticks.
type slice struct {
	seconds float64
	cpu     time.Duration
	steal   float64
}

func (pr *phaseResult) slices() []slice {
	out := make([]slice, 0, len(pr.ticks))
	for k := 1; k < len(pr.ticks); k++ {
		a, b := pr.ticks[k-1], pr.ticks[k]
		out = append(out, slice{(b.at - a.at).Seconds(), b.cpu - a.cpu, b.steal - a.steal})
	}
	return out
}

// sliceOf returns the slice an instant of the phase falls in.
func (pr *phaseResult) sliceOf(at time.Duration) int {
	k := sort.Search(len(pr.ticks), func(i int) bool { return pr.ticks[i].at > at }) - 1
	return min(max(k, 0), len(pr.ticks)-2)
}

// quietShare is the share of a phase its timings are taken from: the slices
// in which the hypervisor took the least CPU time away from this machine. On
// a shared box whole seconds run at half speed while a neighbour is busy; a
// figure over the whole phase then measures the neighbour (p90s spread 2–13×
// across runs), one over the quiet quarter the program.
const quietShare = 0.25

// quietest marks the least-stolen slices: taken in order of steal until they
// hold need of the weight, with every slice tied with the last one taken, so
// that a phase nothing was stolen from counts whole.
func quietest(sl []slice, weight []float64, need float64) []bool {
	order := make([]int, len(sl))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return sl[order[a]].steal < sl[order[b]].steal })
	keep := make([]bool, len(sl))
	held := 0.0
	for k, i := range order {
		if k > 0 && held >= need && sl[i].steal > sl[order[k-1]].steal {
			break
		}
		keep[i] = true
		held += weight[i]
	}
	return keep
}

// quietDist is the distribution of the values whose instants fall in the
// phase's least-stolen slices: those holding quietShare of the values, and at
// least floor of them.
func (pr *phaseResult) quietDist(at []time.Duration, values []float64, floor int) dist {
	sl := pr.slices()
	weight := make([]float64, len(sl))
	for _, t := range at {
		weight[pr.sliceOf(t)]++
	}
	keep := quietest(sl, weight, max(quietShare*float64(len(at)), float64(floor)))
	var kept []float64
	for i, t := range at {
		if keep[pr.sliceOf(t)] {
			kept = append(kept, values[i])
		}
	}
	return newDist(kept)
}

// work is what a stretch of a phase completed.
type work struct {
	seconds float64
	cpu     time.Duration
	frames  int
}

// ops is the work in operations. A stream's frames count as frames/steps
// operations, so a slice that ends mid-stream is not quantised to whole
// streams.
func (wk work) ops(w *workload) float64 {
	if w.stream {
		return float64(wk.frames) / float64(w.steps)
	}
	return float64(wk.frames)
}

// quietWork totals the phase's quietest slices: quietShare of its length.
func (pr *phaseResult) quietWork() work {
	sl := pr.slices()
	weight := make([]float64, len(sl))
	for i := range sl {
		weight[i] = sl[i].seconds
	}
	keep := quietest(sl, weight, quietShare*pr.ticks[len(pr.ticks)-1].at.Seconds())
	var w work
	for i := range sl {
		if keep[i] {
			w.seconds += sl[i].seconds
			w.cpu += sl[i].cpu
		}
	}
	for _, f := range pr.frames {
		if keep[pr.sliceOf(f.at)] {
			w.frames++
		}
	}
	return w
}

// stolen is the share of the phase's CPU time the hypervisor took away.
func (pr *phaseResult) stolen(nproc int) float64 {
	first, last := pr.ticks[0], pr.ticks[len(pr.ticks)-1]
	return ratio((last.steal-first.steal)/clockTicksPerSecond, (last.at-first.at).Seconds()*float64(nproc))
}

func (pr *phaseResult) failed() int {
	n := 0
	for i := range pr.samples {
		if !pr.samples[i].ok {
			n++
		}
	}
	return n
}

const maxFailureNotes = 5

// recorder folds results into a phaseResult under one lock; the work per
// result is a few appends.
type recorder struct {
	mu    sync.Mutex
	pr    phaseResult
	start time.Time
}

// add records one result. origin is the instant latency counts from: the due
// time in the open loop, the send time in the closed loop.
func (rc *recorder) add(w *workload, r *result, origin time.Time, late time.Duration) {
	s := sample{
		ok:        r.fail == "",
		dueAt:     origin.Sub(rc.start),
		lateMs:    ms(late),
		latencyMs: ms(r.done.Sub(origin)),
		ttffMs:    ms(r.first.Sub(origin)),
		modelMs:   r.model * 1e3,
		queueMs:   r.queue * 1e3,
		solveMs:   r.solve * 1e3,
		frames:    r.frames,
	}
	if w.stream && r.frames > 0 {
		s.modelMs /= float64(r.frames) // the Fig-9 quantity per step
	}
	rc.mu.Lock()
	defer rc.mu.Unlock()
	rc.pr.samples = append(rc.pr.samples, s)
	if r.fail != "" {
		if len(rc.pr.failures) < maxFailureNotes {
			rc.pr.failures = append(rc.pr.failures, r.fail)
		}
		return
	}
	if !w.stream {
		rc.pr.frames = append(rc.pr.frames, frame{r.done.Sub(rc.start), s.latencyMs})
		return
	}
	prev := origin
	for _, at := range r.frameAt {
		rc.pr.frames = append(rc.pr.frames, frame{at.Sub(rc.start), ms(at.Sub(prev))})
		prev = at
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// observe runs one phase's load, reading the clocks every sliceLen from its
// start to its end.
func (rc *recorder) observe(load func()) phaseResult {
	stop := make(chan struct{})
	ticks := make(chan []tick)
	go func() { ticks <- watch(rc.start, stop) }()
	load()
	close(stop)
	rc.pr.ticks = <-ticks
	rc.pr.elapsed = time.Since(rc.start)
	return rc.pr
}

// openLoop sends inputs on the precomputed schedule regardless of
// completions. Every request is timed from its due time, so a stall — the
// program's or the generator's — is charged to the requests it delayed; how
// late the generator itself dispatched is reported separately.
func (p *pool) openLoop(w *workload, url string, due []time.Duration, in []input, refs [][]byte) phaseResult {
	type job struct {
		i    int
		late time.Duration
	}
	// Sized to the whole schedule: the dispatcher must never block on a slow
	// program, or the loop would close.
	jobs := make(chan job, len(due))
	rc := &recorder{start: time.Now()}
	return rc.observe(func() {
		var wg sync.WaitGroup
		for _, l := range p.lanes {
			wg.Add(1)
			go func(l *lane) {
				defer wg.Done()
				for j := range jobs {
					r := l.do(w, url, in[j.i], refs)
					rc.add(w, &r, rc.start.Add(due[j.i]), j.late)
				}
			}(l)
		}
		dispatch(rc.start, due, time.Sleep, func(i int, late time.Duration) { jobs <- job{i, late} })
		close(jobs)
		wg.Wait()
	})
}

// dispatch walks the schedule: sleep until each due time, then emit the
// request with its lateness. sleep is time.Sleep outside tests.
func dispatch(start time.Time, due []time.Duration, sleep func(time.Duration), emit func(i int, late time.Duration)) {
	for i, d := range due {
		if wait := time.Until(start.Add(d)); wait > 0 {
			sleep(wait)
		}
		emit(i, time.Since(start)-d)
	}
}

// closedLoop runs one client per lane, each sending its next request when
// the previous reply completes, for the window.
func (p *pool) closedLoop(w *workload, url string, g gen, window time.Duration, refs [][]byte) phaseResult {
	rc := &recorder{start: time.Now()}
	deadline := rc.start.Add(window)
	return rc.observe(func() {
		var wg sync.WaitGroup
		for i, l := range p.lanes {
			wg.Add(1)
			go func(l *lane, src *source) {
				defer wg.Done()
				for time.Now().Before(deadline) {
					r := l.do(w, url, src.next(), refs)
					rc.add(w, &r, r.sent, 0)
				}
			}(l, g.source(phaseClosed, i))
		}
		wg.Wait()
	})
}
