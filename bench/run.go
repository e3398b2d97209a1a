//pdevet:allow walltime set-up time and the phases' windows are wall-clock time
package main

import (
	"fmt"
	"io"
	"runtime/debug"
	"time"
)

// A run sets the fleet up setupReps times and for setupFloor at least — half
// a second of set-up reads steadily only over many repeats — but stops when
// one more would take it past setupCeiling: on a bad day set-up runs at half
// speed, and the suite has a time limit. setup_s is the median, and only the
// last fleet is measured against.
const (
	setupReps    = 3
	setupFloor   = 3 * time.Second
	setupCeiling = 9 * time.Second
)

// runConfig is one child run: one workload, one seed, one window.
type runConfig struct {
	w       *workload
	seed    int64
	seconds int
	nproc   int
	log     io.Writer // human-readable lines
}

func (c runConfig) gen() gen { return gen{w: c.w, seed: c.seed} }

// windows splits the measured window about 2:1 between the open and the
// closed loop.
func (c runConfig) windows() (open, closed time.Duration) {
	total := time.Duration(c.seconds) * time.Second
	open = total * 2 / 3
	return open, total - open
}

// outcome is a child run's result: the contract's four keys.
type outcome struct {
	correct   bool
	attempted int
	failed    int
	metrics   map[string]float64
}

// setUp builds and prepares the fleet repeatedly and returns the last one
// with the median set-up time.
func setUp(c runConfig) (*fleet, *pool, float64, error) {
	var times []float64
	begin := time.Now()
	for {
		t0 := time.Now()
		f, err := newFleet(c.w, c.nproc)
		if err != nil {
			return nil, nil, 0, err
		}
		p := newPool(c.nproc)
		if err := f.prepare(p, c.gen()); err != nil {
			f.close()
			return nil, nil, 0, err
		}
		last, spent := time.Since(t0), time.Since(begin)
		times = append(times, last.Seconds())
		done := (len(times) >= setupReps && spent >= setupFloor) || spent+last > setupCeiling
		if !done {
			p.idle()
			f.close()
		}
		// peak_rss_mb is the measured phases': collect what set-up left
		// behind and start the peak again from what is resident now. How far
		// set-up's garbage had piled up when the collector last ran moved the
		// peak by a third from run to run.
		debug.FreeOSMemory()
		resetPeakRSS()
		if done {
			return f, p, medianOf(times), nil
		}
	}
}

// loaded is the open-loop phase with the counters the service published over
// it.
type loaded struct {
	pr        phaseResult
	serve, gw scrape // /metrics deltas over the phase
}

func runOpen(c runConfig, f *fleet, p *pool, window time.Duration) loaded {
	g := c.gen()
	due := g.schedule(c.w.openRate, window)
	in := g.source(phaseOpen, 0).take(len(due))
	s0, g0 := f.scrapeServe(), f.scrapeGateway()
	pr := p.openLoop(c.w, f.target, due, in, f.refs)
	return loaded{pr: pr, serve: f.scrapeServe().minus(s0), gw: f.scrapeGateway().minus(g0)}
}

func okField(samples []sample, field func(*sample) float64) []float64 {
	var out []float64
	for i := range samples {
		if samples[i].ok {
			out = append(out, field(&samples[i]))
		}
	}
	return out
}

func latencyOf(s *sample) float64 { return s.latencyMs }
func ttffOf(s *sample) float64    { return s.ttffMs }
func modelOf(s *sample) float64   { return s.modelMs }
func queueOf(s *sample) float64   { return s.queueMs }
func solveOf(s *sample) float64   { return s.solveMs }

// pctlOr0 reads a percentile, noting on the log when the sample cannot
// support it.
func pctlOr0(log io.Writer, name string, d dist, p float64) float64 {
	v, ok := d.pctl(p)
	if !ok {
		fmt.Fprintf(log, "# %s: p%g needs %d samples beyond it, n=%d: reported as 0\n", name, p, minBeyond, d.n())
	}
	return v
}

// publishedMetrics turns the service's own counters and reply fields over a
// loaded phase into the per-layer numbers marked scrape/reply.
func publishedMetrics(log io.Writer, ld loaded) map[string]float64 {
	m := map[string]float64{}
	sv, gw := ld.serve, ld.gw
	hits := sv.sum("pdeserve_cache_hits_total")
	warm := sv.sum("pdeserve_cache_warm_hits_total")
	miss := sv.sum("pdeserve_cache_misses_total")
	m["cache.hit_ratio"] = ratio(hits, hits+warm+miss)
	m["cache.warm_ratio"] = ratio(warm, hits+warm+miss)
	m["cache.miss_ratio"] = ratio(miss, hits+warm+miss)
	m["cache.flight_waits"] = sv.sum("pdeserve_cache_flight_waits_total")
	// Every converged non-replayed solve is Put; at capacity each Put that
	// does not grow the store evicts one entry.
	m["cache.evictions"] = miss + warm - sv.sum("pdeserve_cache_entries")
	m["serve.shed_ratio"] = ratio(sv.sum("pdeserve_queue_rejects_total"), sv.sum("pdeserve_requests_total"))
	m["cluster.batch_size_mean"] = ratio(gw.sum("pdegw_batch_size_sum"), gw.sum("pdegw_batch_size_count"))
	m["cluster.dedup_ratio"] = ratio(gw.sum("pdegw_batch_deduped_total"), gw.sum("pdegw_requests_total"))
	m["cluster.failovers"] = gw.sum("pdegw_failovers_total")
	if routed := gw.byLabel("pdegw_backend_routed_total"); len(routed) > 0 {
		n := len(routed)
		m["cluster.route_share_max"] = ratio(routed[n-1], gw.sum("pdegw_backend_routed_total"))
	}

	queue := newDist(okField(ld.pr.samples, queueOf))
	lat := newDist(okField(ld.pr.samples, latencyOf))
	m["serve.queue_ms_p50"] = queue.median()
	m["serve.queue_ms_p99"] = pctlOr0(log, "serve.queue_ms_p99", queue, 99)
	m["serve.solve_ms_p50"] = medianOf(okField(ld.pr.samples, solveOf))
	m["core.model_ms_mean"] = mean(okField(ld.pr.samples, modelOf))
	m["serve.latency_p99_ms"] = pctlOr0(log, "serve.latency_p99_ms", lat, 99)
	m["serve.latency_max_ms"] = lat.max()
	late := make([]float64, len(ld.pr.samples))
	for i := range ld.pr.samples {
		late[i] = ld.pr.samples[i].lateMs
	}
	m["bench.gen_late_ms_p99"] = pctlOr0(log, "bench.gen_late_ms_p99", newDist(late), 99)
	return m
}

// maxGenLateMs is the generator lateness above which a run measured the
// generator, not the program.
const maxGenLateMs = 2.0

// runUntraced is the end-to-end run: set-up, open loop at the declared rate,
// closed loop with nproc clients, output checks throughout.
func runUntraced(c runConfig) (outcome, error) {
	f, p, setupS, err := setUp(c)
	if err != nil {
		return outcome{}, err
	}
	defer f.close()
	openW, closedW := c.windows()
	ld := runOpen(c, f, p, openW)
	closed := p.closedLoop(c.w, f.target, c.gen(), closedW, f.refs)
	detOK := checkDeterminism(c, f, p)

	out := outcome{metrics: map[string]float64{}}
	out.attempted = len(ld.pr.samples) + len(closed.samples)
	out.failed = ld.pr.failed() + closed.failed()
	out.correct = out.failed == 0 && detOK
	for _, why := range append(ld.pr.failures, closed.failures...) {
		fmt.Fprintf(c.log, "# failed op: %s\n", why)
	}

	// Timings come from each phase's quietest slices (see quietShare): a
	// quarter of the requests for a median, and for a p90 as many more as it
	// takes to have minBeyond samples beyond it.
	var due, frameAt []time.Duration
	var latMs, ttffMs, gapMs []float64
	for i := range ld.pr.samples {
		if s := &ld.pr.samples[i]; s.ok {
			due, latMs, ttffMs = append(due, s.dueAt), append(latMs, s.latencyMs), append(ttffMs, s.ttffMs)
		}
	}
	for _, f := range ld.pr.frames {
		frameAt, gapMs = append(frameAt, f.at), append(gapMs, f.gapMs)
	}
	open := &ld.pr
	const forMedian, forP90 = 2*minBeyond + 1, 11 * minBeyond
	lat90 := open.quietDist(due, latMs, forP90)
	work := closed.quietWork()
	// CPU per operation is the open loop's: there the offered load is fixed,
	// so the same work is done at the same duty cycle in every run. In the
	// closed loop the duty cycle floats with the machine's speed — both cores
	// busy on solve-miss, three quarters idle on fleet-replay — and CPU per
	// operation with it: 0.12–0.25 of the median across ten runs, against
	// 0.03–0.14 over the open loop in the same runs.
	openWork := open.quietWork()
	m := out.metrics
	m["setup_s"] = setupS
	m["latency_p50_ms"] = open.quietDist(due, latMs, forMedian).median()
	m["latency_p90_ms"] = pctlOr0(c.log, "latency_p90_ms", lat90, 90)
	m["throughput_rps"] = ratio(work.ops(c.w), work.seconds)
	m["cpu_ms_per_op"] = ratio(ms(openWork.cpu), openWork.ops(c.w))
	m["peak_rss_mb"] = peakRSSMB()
	m["ttff_p50_ms"] = open.quietDist(due, ttffMs, forMedian).median()
	m["ttff_p90_ms"] = pctlOr0(c.log, "ttff_p90_ms", open.quietDist(due, ttffMs, forP90), 90)
	m["frame_gap_p90_ms"] = pctlOr0(c.log, "frame_gap_p90_ms", open.quietDist(frameAt, gapMs, forP90), 90)
	m["frames_per_s"] = ratio(float64(work.frames), work.seconds)

	fmt.Fprintf(c.log, "# open loop: %d requests at %g/s over %s, %.1f%% of the CPU time stolen, p90s from the quietest %d requests, CPU from the quietest %.1f s\n",
		len(ld.pr.samples), c.w.openRate, openW, 100*ld.pr.stolen(c.nproc), lat90.n(), openWork.seconds)
	fmt.Fprintf(c.log, "# closed loop: %d ops by %d clients over %s, %.1f%% stolen, rates from the quietest %.1f s; client connections peak %d of %d\n",
		len(closed.samples), c.nproc, closed.elapsed.Round(time.Millisecond), 100*closed.stolen(c.nproc), work.seconds, p.conns.peak.Load(), c.nproc)
	pub := publishedMetrics(c.log, ld)
	printMetrics(c.log, "published by the service over the open loop (untraced)", perLayer, pub, true)
	if pub["bench.gen_late_ms_p99"] > maxGenLateMs {
		fmt.Fprintf(c.log, "# INVALID: generator lateness p99 %.3f ms exceeds %g ms — the generator, not the program, was the limit; repeat the run\n",
			pub["bench.gen_late_ms_p99"], maxGenLateMs)
	}
	return out, nil
}

// printMetrics lists metrics by name with their unit, in declaration order.
// With only set, metrics missing from m are skipped instead of printed as 0.
func printMetrics(log io.Writer, title string, defs []metricDef, m map[string]float64, only bool) {
	fmt.Fprintf(log, "# %s\n", title)
	for _, d := range defs {
		v, ok := m[d.name]
		if !ok && only {
			continue
		}
		fmt.Fprintf(log, "%-36s %14.6g %s\n", d.name, v, d.unit)
	}
}
