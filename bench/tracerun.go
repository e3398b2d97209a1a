//pdevet:allow walltime the traced run times the layers' public calls from outside
package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"sort"
	"time"

	"hybridpde/internal/nonlin"
	"hybridpde/internal/par"
)

// kernelReps is how many times the fan-out is timed for its median.
const kernelReps = 200

// speedupSample is how many times the serial-vs-two-workers Newton
// comparison solves each way.
const speedupSample = 20

type emptyRunner struct{}

func (emptyRunner) Run(chunk, lo, hi int) {}

// parMetrics times the worker pool's fan-out and compares the Newton polish
// serial and on two workers, alternating, on the workload's system.
func parMetrics(log io.Writer, e *enactor, first []byte, nproc int, m map[string]float64) error {
	pool := par.NewPool(2)
	fan := make([]float64, kernelReps)
	for i := range fan {
		t0 := time.Now()
		pool.Run(2, 1, emptyRunner{})
		fan[i] = float64(time.Since(t0)) / 1e3
	}
	pool.Close()
	m["par.fanout_us_p50"] = medianOf(fan)
	if nproc < 2 {
		fmt.Fprintf(log, "# par.speedup_p2: needs 2 CPUs, have %d: reported as 0\n", nproc)
		return nil
	}
	r, err := e.load(first)
	if err != nil {
		return err
	}
	var serial, two nonlin.SparseSolver
	defer two.Close()
	opts := e.newtonOpts()
	opts.Chord = e.w.stream
	solve := func(s *nonlin.SparseSolver, procs int) (float64, error) {
		opts.Procs = procs
		s.ResetReuse()
		t0 := time.Now()
		_, err := s.Solve(context.Background(), r.sys.pdeSystem, r.start, opts)
		return ms(time.Since(t0)), err
	}
	var t1, t2 []float64
	for i := 0; i < speedupSample; i++ {
		a, err := solve(&serial, 1)
		if err != nil {
			return err
		}
		b, err := solve(&two, 2)
		if err != nil {
			return err
		}
		t1, t2 = append(t1, a), append(t2, b)
	}
	m["par.speedup_p2"] = ratio(medianOf(t1), medianOf(t2))
	return nil
}

// traced is what the serial part of the traced run collected, by input.
type traced struct {
	on, off, direct []sample // end to end: tracing on, off, straight to the owner
	accts           []account
}

// modelTolerance is the relative slack of the re-enactment check on analog
// workloads. Digital replies must match bit for bit; an analog seed's
// modelled settle time depends on which worker's accelerator served it (each
// worker draws its own mismatch from Seed+index), up to a few parts in 1e3.
const modelTolerance = 1e-2

// runTraced is the separate traced run. It yields the per-layer metrics and
// never the end-to-end ones: an open-loop window for what the service
// publishes under load, then each generated input sent end to end on one
// connection (via the gateway and straight to the owning backend) and, right
// after, re-enacted from the layers' public calls. The two are interleaved
// per input because this box's speed drifts over seconds: only figures taken
// next to each other compare.
func runTraced(c runConfig) (outcome, error) {
	f, err := newFleet(c.w, c.nproc)
	if err != nil {
		return outcome{}, err
	}
	defer f.close()
	p := newPool(c.nproc)
	g := c.gen()
	if err := f.prepare(p, g); err != nil {
		return outcome{}, err
	}
	out := outcome{metrics: map[string]float64{}}
	m := out.metrics
	var failures []string

	ld := runOpen(c, f, p, time.Duration(c.seconds)*time.Second*3/8)
	out.attempted += len(ld.pr.samples)
	out.failed += ld.pr.failed()
	failures = append(failures, ld.pr.failures...)
	for k, v := range publishedMetrics(c.log, ld) {
		m[k] = v
	}
	p.idle()

	tr := newTracer()
	e, err := newEnactor(c.w, tr, c.nproc)
	if err != nil {
		return outcome{}, err
	}
	if c.w.replay {
		if err := e.fillIdentities(g); err != nil {
			return outcome{}, err
		}
	}
	n := c.w.traceN
	in := g.source(phaseTrace, 0).take(n)
	offIn := g.source(phaseTrace, 1)
	t := traced{on: make([]sample, n), direct: make([]sample, n), accts: make([]account, n)}
	first := len(tr.spans)
	l := p.lanes[0]
	// send runs one request end to end and returns it as a sample.
	send := func(url, span string, in input) sample {
		id := tr.begin(span, "e2e")
		r := l.do(c.w, url, in, f.refs)
		tr.end(id)
		rc := recorder{start: r.sent}
		rc.add(c.w, &r, r.sent, 0)
		out.attempted++
		if r.fail != "" {
			out.failed++
			failures = append(failures, r.fail)
		}
		return rc.pr.samples[0]
	}
	// Inputs are taken owner by owner, so the lane holds at most the
	// gateway's connection and one backend's.
	for _, b := range f.backends {
		p.idle()
		for i := range in {
			sh := c.w.shapes[0]
			if in[i].ident >= 0 {
				sh = c.w.shapes[in[i].ident%len(c.w.shapes)]
			}
			if f.owner(sh) != b {
				continue
			}
			tr.request = i
			t.on[i] = send(f.target, "e2e.request", in[i])
			if i%4 == 0 {
				saved := tr.muted
				tr.muted++ // every fourth input is followed by one with tracing off
				t.off = append(t.off, send(f.target, "", offIn.next()))
				tr.muted = saved
			}
			t.direct[i] = t.on[i]
			if c.w.gateway {
				t.direct[i] = send(b.url, "e2e.direct", in[i])
			}
			enact := e.unary
			if c.w.stream {
				enact = e.trajectory
			}
			a, err := enact(i, in[i].body, i < goldenSample)
			if err != nil {
				return outcome{}, fmt.Errorf("re-enacting input %d: %w", i, err)
			}
			// The re-enactment must reproduce the service: same modelled cost.
			want := a.modelSeconds * 1e3
			if c.w.stream && a.steps > 0 {
				want /= float64(a.steps)
			}
			tol := 0.0
			if c.w.analog {
				tol = modelTolerance * want
			}
			if got := t.on[i].modelMs; a.fail == "" && t.on[i].ok && math.Abs(got-want) > tol {
				a.fail = fmt.Sprintf("re-enacted model %.17g ms, the service replied %.17g ms", want, got)
			}
			out.attempted++
			if a.fail != "" {
				out.failed++
				failures = append(failures, fmt.Sprintf("input %d: %s", i, a.fail))
			}
			t.accts[i] = a
		}
	}
	if !c.w.replay {
		if err := parMetrics(c.log, e, in[0].body, c.nproc, m); err != nil {
			return outcome{}, err
		}
	}
	layerMetrics(c, tr, first, &t, e, m)

	if m["core.golden_rms_err_max"] > maxGoldenRMS {
		out.failed++
		failures = append(failures, fmt.Sprintf("core.golden_rms_err_max %g above %g", m["core.golden_rms_err_max"], maxGoldenRMS))
	}
	sort.Strings(failures)
	for i, why := range failures {
		if i == maxFailureNotes {
			break
		}
		fmt.Fprintf(c.log, "# failed op: %s\n", why)
	}
	out.correct = out.failed == 0
	return out, nil
}

// maxGoldenRMS is the ceiling on the served solution's RMS distance from the
// certified reference solve.
const maxGoldenRMS = 1e-8
