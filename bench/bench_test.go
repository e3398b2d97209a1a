package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"sync/atomic"
	"testing"
	"time"
)

// goodReply is a /v1/solve body that passes every output check.
const goodReply = `{"problem":"burgers2d","dim":8,"converged":true,"residual":1e-13,"model_seconds":0.001,"queue_seconds":0.00001,"solve_seconds":0.0002}` + "\n"

func TestSameSeedSameInputsAndSchedule(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		a, b, other := gen{w, 7}, gen{w, 7}, gen{w, 8}
		for _, phase := range []int{phaseWarm, phaseOpen, phaseClosed, phaseTrace} {
			for lane := 0; lane < 2; lane++ {
				x, y := a.source(phase, lane).take(64), b.source(phase, lane).take(64)
				if !reflect.DeepEqual(x, y) {
					t.Errorf("%s phase %d lane %d: same seed gave different request sequences", w.name, phase, lane)
				}
				if z := other.source(phase, lane).take(64); reflect.DeepEqual(x, z) {
					t.Errorf("%s phase %d lane %d: another seed gave the same request sequence", w.name, phase, lane)
				}
			}
		}
		window := 3 * time.Second
		s := a.schedule(w.openRate, window)
		if !reflect.DeepEqual(s, b.schedule(w.openRate, window)) {
			t.Errorf("%s: same seed gave different schedules", w.name)
		}
		if want := int(math.Round(w.openRate * window.Seconds())); len(s) != want {
			t.Errorf("%s: schedule has %d arrivals, want rate × window = %d", w.name, len(s), want)
		}
		slot := window / time.Duration(len(s))
		for k := 1; k < len(s); k++ {
			if gap := s[k] - s[k-1]; gap < slot*3/4-time.Microsecond || gap > slot*5/4+time.Microsecond || s[k] >= window {
				t.Fatalf("%s: arrival %d comes %s after the last, want 0.75 to 1.25 slots of %s", w.name, k, gap, slot)
			}
		}
	}
}

func TestReplayDealsEveryIdentityOncePerRound(t *testing.T) {
	w := findWorkload("fleet-replay")
	g := gen{w, 5}
	src := g.source(phaseOpen, 0)
	for round := 0; round < 2; round++ {
		seen := map[int]bool{}
		for _, in := range src.take(g.identities()) {
			if seen[in.ident] || !bytes.Equal(in.body, g.identity(in.ident)) {
				t.Fatalf("round %d: identity %d dealt twice or with another body", round, in.ident)
			}
			seen[in.ident] = true
		}
	}
}

func TestMissWorkloadsNeverRepeatAnIdentity(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		if w.replay {
			continue
		}
		g := gen{w, 3}
		seen := map[string]bool{}
		for _, phase := range []int{phaseWarm, phaseOpen, phaseClosed, phaseTrace, phaseCheck} {
			for lane := 0; lane < 2; lane++ {
				for _, in := range g.source(phase, lane).take(500) {
					if seen[string(in.body)] {
						t.Fatalf("%s: request %s generated twice: it would hit the cache", w.name, in.body)
					}
					seen[string(in.body)] = true
				}
			}
		}
	}
}

// TestDueTimeAccountingChargesAStall: one connection, requests due every
// 10 ms, the third one stalls for 150 ms in the program. The requests due
// during the stall are quick once sent, but their latency counts from their
// due time, so they carry the stall; the generator itself was never late.
func TestDueTimeAccountingChargesAStall(t *testing.T) {
	const stall = 150 * time.Millisecond
	var served atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if served.Add(1) == 3 {
			time.Sleep(stall)
		}
		fmt.Fprint(w, goodReply)
	}))
	defer srv.Close()
	w := &workload{name: "test"}
	due := make([]time.Duration, 8)
	in := make([]input, len(due))
	for i := range due {
		due[i] = time.Duration(i) * 10 * time.Millisecond
		in[i] = input{body: []byte(`{}`), ident: -1}
	}
	pr := newPool(1).openLoop(w, srv.URL, due, in, nil)
	if len(pr.samples) != len(due) || pr.failed() != 0 {
		t.Fatalf("%d samples, %d failed (%v), want %d and 0", len(pr.samples), pr.failed(), pr.failures, len(due))
	}
	// One lane: samples are in send order. Request 3 is due 30 ms in, but the
	// lane is stalled until about 170 ms.
	if got := pr.samples[3].latencyMs; got < 100 {
		t.Errorf("request due during the stall has latency %.1f ms: the stall was not charged to it", got)
	}
	if got := pr.samples[1].latencyMs; got > 50 {
		t.Errorf("request before the stall has latency %.1f ms, want a quick reply", got)
	}
	for i, s := range pr.samples {
		if s.lateMs > 50 {
			t.Errorf("request %d dispatched %.1f ms late: the dispatcher waited for the program", i, s.lateMs)
		}
	}
}

func TestDispatchReportsGeneratorLateness(t *testing.T) {
	due := []time.Duration{0, time.Millisecond, 2 * time.Millisecond}
	// A generator whose sleep overshoots by 30 ms must report about that much.
	oversleep := func(d time.Duration) { time.Sleep(d + 30*time.Millisecond) }
	var late []time.Duration
	dispatch(time.Now(), due, oversleep, func(i int, l time.Duration) { late = append(late, l) })
	if len(late) != 3 || late[1] < 25*time.Millisecond {
		t.Errorf("lateness %v, want the 30 ms oversleep reported", late)
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	d := newDist(xs)
	if d.n() != 100 {
		t.Fatalf("n = %d", d.n())
	}
	if v, ok := d.pctl(90); !ok || v != 90 {
		t.Errorf("p90 of 1..100 = %v, %v; want 90 with 10 samples beyond", v, ok)
	}
	if v, ok := d.pctl(99); ok || v != 0 {
		t.Errorf("p99 of 100 samples = %v, %v; want unsupported (1 sample beyond)", v, ok)
	}
	if _, ok := newDist(xs[:99]).pctl(90); ok {
		t.Error("p90 of 99 samples reported with only 9 samples beyond")
	}
	if _, ok := newDist(make([]float64, 1000)).pctl(99); !ok {
		t.Error("p99 of 1000 samples not reported")
	}
	if got := newDist([]float64{4, 1, 3, 2}).median(); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestQuietestTakesTheLeastStolenSlices(t *testing.T) {
	steal := []float64{9, 0, 3, 0, 7, 1, 0, 5}
	sl := make([]slice, len(steal))
	weight := make([]float64, len(steal))
	for i := range sl {
		sl[i], weight[i] = slice{seconds: 1, steal: steal[i]}, 1
	}
	marks := func(keep []bool) string {
		b := make([]byte, len(keep))
		for i, k := range keep {
			b[i] = '-'
			if k {
				b[i] = 'x'
			}
		}
		return string(b)
	}
	// A quarter of eight is two slices, but three tie at no steal.
	if got := marks(quietest(sl, weight, 2)); got != "-x-x--x-" {
		t.Errorf("need 2: kept %s, want the three unstolen slices", got)
	}
	if got := marks(quietest(sl, weight, 5)); got != "-xxx-xx-" {
		t.Errorf("need 5: kept %s, want steal 0,0,0,1,3", got)
	}
	// A phase nothing was stolen from counts whole.
	for i := range sl {
		sl[i].steal = 0
	}
	if got := marks(quietest(sl, weight, 2)); got != "xxxxxxxx" {
		t.Errorf("no steal: kept %s, want every slice", got)
	}
}

// TestQuietFiguresLeaveOutAStolenStretch: a phase of four slices, the second
// one stolen from. Its slow requests and its thin throughput stay out of the
// figures.
func TestQuietFiguresLeaveOutAStolenStretch(t *testing.T) {
	const perSlice = 100
	pr := phaseResult{}
	for k := 0; k <= 4; k++ {
		steal := 0.0
		if k >= 2 {
			steal = 40
		}
		pr.ticks = append(pr.ticks, tick{at: time.Duration(k) * sliceLen, cpu: time.Duration(k) * 100 * time.Millisecond, steal: steal})
	}
	var at []time.Duration
	var latMs []float64
	for i := 0; i < 4*perSlice; i++ {
		t := time.Duration(i) * sliceLen / perSlice
		at = append(at, t)
		if pr.sliceOf(t) == 1 {
			latMs = append(latMs, 50)
			continue
		}
		latMs = append(latMs, 1)
		pr.frames = append(pr.frames, frame{at: t})
	}
	if d := pr.quietDist(at, latMs, 0); d.n() != 3*perSlice || d.max() != 1 {
		t.Errorf("quiet latencies: n %d max %v, want the %d outside the stolen slice, all 1 ms", d.n(), d.max(), 3*perSlice)
	}
	// More wanted than the unstolen slices hold: the stolen one comes in.
	if d := pr.quietDist(at, latMs, 3*perSlice+1); d.n() != 4*perSlice {
		t.Errorf("floor above the quiet slices' count: n %d, want all %d", d.n(), 4*perSlice)
	}
	w := pr.quietWork()
	if w.frames != 3*perSlice || math.Abs(w.seconds-3*sliceLen.Seconds()) > 1e-9 || w.cpu != 300*time.Millisecond {
		t.Errorf("quiet work %+v, want three slices' frames, seconds and CPU", w)
	}
	if got := pr.stolen(2); math.Abs(got-0.4/4) > 1e-9 {
		t.Errorf("stolen share %v, want 40 ticks of 2 s × 2 CPUs = 0.1", got)
	}
}

func TestConnectionsNeverExceedLanes(t *testing.T) {
	handler := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(time.Millisecond)
		fmt.Fprint(w, goodReply)
	})
	a, b := httptest.NewServer(handler), httptest.NewServer(handler)
	defer a.Close()
	defer b.Close()
	w := &workload{name: "test", shapes: []shape{{"burgers2d", 2}}}
	const lanes = 2
	p := newPool(lanes)
	for _, url := range []string{a.URL, b.URL} {
		if fails := p.each(40, func(l *lane, i int) result { return l.solve(url, []byte(`{}`), nil) }); len(fails) > 0 {
			t.Fatal(fails)
		}
		due := gen{w, 1}.schedule(400, 100*time.Millisecond)
		in := gen{w, 1}.source(phaseOpen, 0).take(len(due))
		p.openLoop(w, url, due, in, nil)
		p.closedLoop(w, url, gen{w, 1}, 100*time.Millisecond, nil)
		p.idle()
	}
	if peak := p.conns.peak.Load(); peak > lanes || peak == 0 {
		t.Errorf("client connections peaked at %d, want 1..%d", peak, lanes)
	}
}

func TestOutputChecks(t *testing.T) {
	reply := goodReply
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { fmt.Fprint(w, reply) }))
	defer srv.Close()
	l := newPool(1).lanes[0]
	ref := stripTimings([]byte(goodReply))
	if r := l.solve(srv.URL, []byte(`{}`), ref); r.fail != "" || r.model != 0.001 {
		t.Errorf("good reply: fail %q model %v", r.fail, r.model)
	}
	for name, body := range map[string]string{
		"not converged": `{"problem":"x","residual":1e-13,"queue_seconds":0,"solve_seconds":0}`,
		"degraded":      `{"problem":"x","converged":true,"degraded":true,"residual":1e-13,"queue_seconds":0,"solve_seconds":0}`,
		"residual":      `{"problem":"x","converged":true,"residual":1e-6,"queue_seconds":0,"solve_seconds":0}`,
		"replay":        `{"problem":"burgers2d","dim":9,"converged":true,"residual":1e-13,"model_seconds":0.001,"queue_seconds":0,"solve_seconds":0}`,
	} {
		reply = body
		if r := l.solve(srv.URL, []byte(`{}`), ref); r.fail == "" {
			t.Errorf("%s: reply %s passed the checks", name, body)
		}
	}
}

func TestStreamChecks(t *testing.T) {
	frames, done := 3, true
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		for i := 1; i <= frames; i++ {
			fmt.Fprintf(w, `{"step":%d,"t":%d,"residual":1e-13,"converged":true,"checksum":"c%d"}`+"\n", i, i, i)
			w.(http.Flusher).Flush()
		}
		fmt.Fprintf(w, `{"done":%v,"problem":"burgers2d","frames":%d,"model_seconds":0.3,"queue_seconds":0,"solve_seconds":0.01}`+"\n", done, frames)
	}))
	defer srv.Close()
	l := newPool(1).lanes[0]
	r := l.stream(srv.URL, []byte(`{}`), 3)
	if r.fail != "" || r.frames != 3 || !reflect.DeepEqual(r.sums, []string{"c1", "c2", "c3"}) || r.first.After(r.done) {
		t.Errorf("good stream: fail %q frames %d sums %v", r.fail, r.frames, r.sums)
	}
	if r := l.stream(srv.URL, []byte(`{}`), 4); r.fail == "" {
		t.Error("a stream one frame short passed the checks")
	}
	done = false
	if r := l.stream(srv.URL, []byte(`{}`), 3); r.fail == "" {
		t.Error("a stream without done:true passed the checks")
	}
}

func TestSelfTimeIsSpanMinusChildren(t *testing.T) {
	tr := newTracer()
	root := tr.begin("request", "bench")
	a := tr.begin("core.ladder", "core")
	b := tr.begin("pde.eval", "pde")
	time.Sleep(2 * time.Millisecond)
	tr.end(b)
	tr.muted++
	if id := tr.begin("pde.eval", "pde"); id != -1 {
		t.Error("a muted tracer recorded a span")
	}
	tr.muted--
	tr.end(a)
	tr.end(root)
	if tr.spans[b].Parent != a || tr.spans[a].Parent != root || tr.spans[root].Parent != -1 {
		t.Fatalf("parents: %+v", tr.spans)
	}
	self := tr.selfMs()
	if got, want := self[a], tr.spans[a].ms()-tr.spans[b].ms(); math.Abs(got-want) > 1e-9 {
		t.Errorf("self time of the ladder span = %v, want span − child = %v", got, want)
	}
	if self[b] < 2 {
		t.Errorf("leaf self time %v ms, want its whole 2 ms", self[b])
	}
}

// TestBenchmarkJSONDeclaresWhatTheProgramPrints keeps BENCHMARK.json and the
// tables in spec.go one definition.
func TestBenchmarkJSONDeclaresWhatTheProgramPrints(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var doc struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc.Paths, []string{"bench"}) || !reflect.DeepEqual(doc.Command, []string{"go", "-C", "bench", "run", "."}) {
		t.Errorf("command %v paths %v", doc.Command, doc.Paths)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, the program has %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: declared %q (%q), program has %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters, the contract allows 200", w.Name, len(w.Why))
		}
	}
	check := func(kind string, declared []metric, defs []metricDef, bounded bool) {
		if len(declared) != len(defs) {
			t.Fatalf("%s: %d metrics declared, the program prints %d", kind, len(declared), len(defs))
		}
		for i, d := range declared {
			want := defs[i]
			if d.Name != want.name || d.Unit != want.unit || d.Better != want.better {
				t.Errorf("%s metric %d: declared %+v, program has %+v", kind, i, d, want)
			}
			if bounded != (d.Bound != nil) || (bounded && *d.Bound != want.bound) {
				t.Errorf("%s metric %s: bound declared %v, program has %v", kind, d.Name, d.Bound, want.bound)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd, true)
	check("per_layer", doc.PerLayer, perLayer, false)

	// What the declared window must support: the gated p90s need 110 samples.
	c := runConfig{seconds: doc.RunSeconds}
	open, _ := c.windows()
	for i := range workloads {
		if n := len((gen{&workloads[i], 1}).schedule(workloads[i].openRate, open)); n < 110 {
			t.Errorf("%s: %d open-loop requests in a %d s run cannot support a p90", workloads[i].name, n, doc.RunSeconds)
		}
	}
}
