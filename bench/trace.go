//pdevet:allow walltime a span is a pair of wall-clock readings
package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"time"

	"hybridpde/internal/cache"
	"hybridpde/internal/core"
	"hybridpde/internal/la"
	"hybridpde/internal/nonlin"
	"hybridpde/internal/par"
	"hybridpde/internal/problem"
)

// span is one timed call of the traced run. The layers are timed from
// outside — around calls into their public functions — so a span's parent is
// the enclosing call: self time is the span minus its children.
type span struct {
	Name    string `json:"name"`
	Layer   string `json:"layer"`
	StartNs int64  `json:"start_ns"` // since the trace began
	EndNs   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`  // index of the span that caused it, -1 for a root
	Request int    `json:"request"` // index of the generated input
}

func (s *span) ms() float64 { return float64(s.EndNs-s.StartNs) / 1e6 }

// tracer keeps spans in memory; the traced passes are serial, so it needs no
// lock. A nil tracer records nothing (the tracing-off pass).
type tracer struct {
	t0      time.Time
	spans   []span
	open    []int
	request int
	// muted suppresses spans while positive: inside the analog seed, whose
	// host time (the simulated fabric evaluating the system) belongs to the
	// analog layer as a whole.
	muted int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name, layer string) int {
	if t == nil || t.muted > 0 {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Layer: layer, Parent: parent, Request: t.request})
	t.open = append(t.open, id)
	t.spans[id].StartNs = int64(time.Since(t.t0))
	return id
}

func (t *tracer) end(id int) {
	if id < 0 {
		return
	}
	t.spans[id].EndNs = int64(time.Since(t.t0))
	t.open = t.open[:len(t.open)-1]
}

// selfMs returns every span's self time: its duration minus its children's.
func (t *tracer) selfMs() []float64 {
	self := make([]float64, len(t.spans))
	for i := range t.spans {
		d := t.spans[i].ms()
		self[i] += d
		if p := t.spans[i].Parent; p >= 0 {
			self[p] -= d
		}
	}
	return self
}

// durations lists the durations (ms) of the spans with the given name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for i := range t.spans {
		if t.spans[i].Name == name {
			out = append(out, t.spans[i].ms())
		}
	}
	return out
}

// traceFileRequests bounds the trace file to the first requests' spans; the
// metrics use every span.
const traceFileRequests = 20

// write saves the spans of the first traceFileRequests requests and the
// per-layer self-time totals under out/ in the benchmark's directory.
func (t *tracer) write(name string, layerSelfMs map[string]float64) error {
	var keep []span
	for i := range t.spans {
		if t.spans[i].Request < traceFileRequests {
			keep = append(keep, t.spans[i])
		}
	}
	doc := struct {
		Workload    string             `json:"workload"`
		LayerSelfMs map[string]float64 `json:"layer_self_ms"`
		Spans       []span             `json:"spans"`
	}{name, layerSelfMs, keep}
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	if err := os.MkdirAll("out", 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join("out", "trace-"+name+".json"), b, 0o644)
}

// The three seams the ladder takes from its caller — the system, the seeder
// and the solve cache — are where spans are recorded inside a real
// Ladder.Solve or TimeLoop call.

// pdeSystem is what every pde problem kind the service solves implements.
type pdeSystem interface {
	problem.SparseSystem
	problem.WarmStarter
	problem.DegreeReporter
	problem.Decomposable
}

// tracedSystem forwards to a pde system, recording Eval and JacobianCSR.
type tracedSystem struct {
	pdeSystem
	tr *tracer
}

func (s *tracedSystem) Eval(u, f []float64) error {
	id := s.tr.begin("pde.eval", "pde")
	err := s.pdeSystem.Eval(u, f)
	s.tr.end(id)
	return err
}

func (s *tracedSystem) JacobianCSR(u []float64) (*la.CSR, error) {
	id := s.tr.begin("pde.jacobian", "pde")
	j, err := s.pdeSystem.JacobianCSR(u)
	s.tr.end(id)
	return j, err
}

// SetPool forwards the solver's worker pool (nonlin.PoolAware).
func (s *tracedSystem) SetPool(p *par.Pool) {
	if pa, ok := s.pdeSystem.(nonlin.PoolAware); ok {
		pa.SetPool(p)
	}
}

// Advance forwards core.TransientSystem; only stream workloads call it, and
// their kinds march in time.
func (s *tracedSystem) Advance(w []float64) error {
	return s.pdeSystem.(core.TransientSystem).Advance(w)
}

// tracedSeeder records the product's seeder as one analog span and keeps what
// the traced run reports about it.
type tracedSeeder struct {
	inner core.Seeder
	tr    *tracer
	// seed is the vector the analog stage produced, settleTau its simulated
	// settle time in integrator time constants (exact, machine-independent).
	seed      []float64
	settleTau float64
}

func (s *tracedSeeder) Seed(ctx context.Context, sys problem.SparseSystem, seed []float64, opts *core.Options, rep *core.Report) error {
	id := s.tr.begin("analog.seed", "analog")
	if s.tr != nil {
		s.tr.muted++
	}
	before := rep.AnalogSeconds
	err := s.inner.Seed(ctx, sys, seed, opts, rep)
	if s.tr != nil {
		s.tr.muted--
	}
	s.tr.end(id)
	s.seed = append(s.seed[:0], seed...)
	s.settleTau = (rep.AnalogSeconds - before) / analogTimeConstant
	return err
}

// tracedCache binds a cache.Store to the ladder's cache rungs for one request
// at a time, the way serve's worker does, recording each lookup.
type tracedCache struct {
	store   *cache.Store
	tr      *tracer
	on      bool
	key     cache.Key
	bucket  cache.Key
	coords  [2]float64
	radius  float64
	hitMeta *core.CachedSolve
}

func (c *tracedCache) Lookup(dst []float64) (core.CachedSolve, bool) {
	if !c.on {
		return core.CachedSolve{}, false
	}
	id := c.tr.begin("cache.get", "cache")
	meta, ok := c.store.Get(c.key, dst)
	c.tr.end(id)
	if !ok {
		return core.CachedSolve{}, false
	}
	c.hitMeta = meta.(*core.CachedSolve)
	return *c.hitMeta, true
}

func (c *tracedCache) Nearest(dst []float64) bool {
	if !c.on {
		return false
	}
	id := c.tr.begin("cache.nearest", "cache")
	_, _, ok := c.store.Nearest(c.bucket, c.coords[:], c.radius, dst)
	c.tr.end(id)
	return ok
}
