//pdevet:allow walltime the traced run times the layers' public calls from outside
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"math/rand"
	"time"

	"hybridpde/internal/analog"
	"hybridpde/internal/cache"
	"hybridpde/internal/cluster"
	"hybridpde/internal/core"
	"hybridpde/internal/la"
	"hybridpde/internal/nonlin"
	"hybridpde/internal/pde"
	"hybridpde/internal/serve"
	"hybridpde/internal/stats"
)

const analogTimeConstant = analog.TimeConstantSeconds

// The decomposed pass re-enacts each generated request from the layers'
// public calls, on a problem built and filled exactly as a serve worker
// builds and fills it, so the per-layer times are measured on the same work
// the end-to-end pass timed. The re-enactment is checked against the
// service: its modelled seconds must equal the reply's bit for bit.

// replica is one problem shape as a serve worker holds it: built once,
// refilled in place from each request's seed.
type replica struct {
	sys     *tracedSystem
	burgers *pde.Burgers
	steady  *pde.BurgersSteady
	b1d     *pde.Burgers1D
	root    []float64 // steady kind: the planted root
	u0      []float64 // steady kind: the perturbed start
	start   []float64 // the start the solve uses
	f       []float64
	delta   []float64
	rng     *rand.Rand
}

func newReplica(sh shape, tr *tracer) (*replica, error) {
	r := &replica{rng: rand.New(rand.NewSource(1))}
	var sys pdeSystem
	switch sh.problem {
	case serve.KindBurgers2D, serve.KindBurgersSteady:
		b, err := pde.NewBurgers(sh.n, 1)
		if err != nil {
			return nil, err
		}
		b.Order = 2
		r.burgers, sys = b, b
		if sh.problem == serve.KindBurgersSteady {
			r.steady = pde.NewBurgersSteady(b)
			sys = r.steady
			r.root = make([]float64, sys.Dim())
			r.u0 = make([]float64, sys.Dim())
		}
	case serve.KindBurgers1D:
		b, err := pde.NewBurgers1D(sh.n, 1)
		if err != nil {
			return nil, err
		}
		r.b1d, sys = b, b
	default:
		return nil, fmt.Errorf("no replica for problem kind %q", sh.problem)
	}
	r.sys = &tracedSystem{pdeSystem: sys, tr: tr}
	r.start = make([]float64, sys.Dim())
	r.f = make([]float64, sys.Dim())
	r.delta = make([]float64, sys.Dim())
	return r, nil
}

func (r *replica) draw(dst []float64, bound float64) {
	for i := range dst {
		dst[i] = bound * (2*r.rng.Float64() - 1)
	}
}

// refill rewrites the problem's fields from the request seed in the order
// serve's worker draws them, and leaves the solve's start in r.start.
func (r *replica) refill(seed int64, bound float64) error {
	r.rng.Seed(seed)
	switch {
	case r.b1d != nil:
		b := r.b1d
		r.draw(b.UPrev, bound)
		r.draw(b.RHS, bound)
		b.Left = bound * (2*r.rng.Float64() - 1)
		b.Right = bound * (2*r.rng.Float64() - 1)
	case r.steady != nil:
		b := r.burgers
		r.draw(b.UPrev, bound)
		r.draw(b.VPrev, bound)
		r.draw(r.root, bound)
		if err := r.steady.SetRHSForRoot(r.root); err != nil {
			return err
		}
		for i := range r.u0 {
			r.u0[i] = r.root[i] + 0.05*bound*(2*r.rng.Float64()-1)
		}
	default:
		b := r.burgers
		r.draw(b.UPrev, bound)
		r.draw(b.VPrev, bound)
		r.draw(b.RHS0, bound)
		r.draw(b.RHS1, bound)
	}
	if r.u0 != nil {
		copy(r.start, r.u0)
	} else {
		r.sys.InitialGuessInto(r.start)
	}
	return nil
}

// account is what the decomposed pass learned about one request.
type account struct {
	modelSeconds float64
	digital      nonlin.Result
	rungAttempts int
	seedRejected bool
	degraded     bool
	analogUsed   bool
	seedAccepted bool
	settleTau    float64
	seedRMS      float64 // vs golden, share of the dynamic range (sampled)
	goldenRMS    float64 // served solution vs golden (sampled)
	sampled      bool
	// fail is why the re-enactment disagrees with itself ("" when it agrees).
	fail string
	kern kernelTimes
	// span indices (-1 when the request had none).
	ladderSpan, seedSpan, newtonSpan int
	// stream only.
	steps       int
	stepMs      []float64 // per-step time inside TimeLoop, frame encode excluded
	newtonSteps []int     // newton replay span per step
}

// goldenSample is how many requests per workload are also solved by
// core.GoldenSolve for the accuracy figures.
const goldenSample = 8

// enactor re-enacts requests of one workload.
type enactor struct {
	w        *workload
	tr       *tracer
	replicas map[shape]*replica
	ring     *cluster.Ring
	ladder   *core.Ladder
	bind     tracedCache
	store    *cache.Store
	seeder   *tracedSeeder
	opts     core.Options
	lopts    core.LadderOptions
	kb       cache.KeyBuilder
	solver   nonlin.SparseSolver // the Newton replay's own workspace
	lu       la.BandLU           // the kernel timings' own factorization
	buildMs  float64             // analog.NewAccelerator
	maxGridN int
}

// newEnactor mirrors one serve worker: workspace, six-rung cached ladder,
// the worker's accelerator (server seed 1 + capacity), seed gate 1, and a
// solve cache at capacity holding vectors of the workload's dimension.
func newEnactor(w *workload, tr *tracer, nproc int) (*enactor, error) {
	e := &enactor{w: w, tr: tr, replicas: map[shape]*replica{}, maxGridN: 16}
	dim := 0
	for _, sh := range w.shapes {
		r, err := newReplica(sh, tr)
		if err != nil {
			return nil, err
		}
		e.replicas[sh] = r
		dim = r.sys.Dim()
	}
	procs := 1
	if w.gateway {
		procs = nproc
		e.maxGridN = 12
		ring, err := cluster.NewRing(backendNames, 0)
		if err != nil {
			return nil, err
		}
		e.ring = ring
	}
	e.store = cache.New(0)
	filler := make([]float64, dim)
	for i := 0; i < cache.DefaultCapacity; i++ {
		e.kb.Reset()
		e.kb.I64(1, int64(i))
		k := e.kb.Sum()
		e.store.Put(k, k, []float64{1, 0.5}, filler, &core.CachedSolve{})
	}
	e.bind = tracedCache{store: e.store, tr: tr, radius: 0.25}
	e.ladder = core.NewLadderRungs(core.CachedRungs(&e.bind)...)
	e.opts = core.Options{Workspace: core.NewWorkspace(), Perf: core.PerfCPU, Procs: procs, SkipAnalog: true}
	e.lopts = core.LadderOptions{GateFactor: 1}
	if w.analog {
		vars := dim
		tiles := analog.PrototypeChip.Tiles
		t0 := time.Now()
		acc := analog.NewAccelerator(analog.Config{Chips: (vars + tiles - 1) / tiles, Seed: 1 + int64(vars)})
		e.buildMs = ms(time.Since(t0))
		e.seeder = &tracedSeeder{inner: core.AnalogSeeder(acc), tr: tr}
		e.opts.Seeder, e.opts.SkipAnalog = e.seeder, false
	}
	return e, nil
}

// bucketKey is the identity minus the continuation coordinates (re, bound),
// as serve buckets warm-start candidates.
func bucketKey(req *serve.Request, kb *cache.KeyBuilder) cache.Key {
	kb.Reset()
	kb.Str(1, req.Problem)
	kb.I64(2, int64(req.N))
	kb.I64(3, int64(req.Order))
	kb.I64(6, req.Seed)
	kb.Str(7, req.Backend)
	if req.Analog {
		kb.I64(8, 1)
	} else {
		kb.I64(8, 0)
	}
	kb.I64(9, int64(req.AnalogVars))
	return kb.Sum()
}

func decode(body []byte, req *serve.Request) error {
	*req = serve.Request{}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	return dec.Decode(req)
}

// admit re-enacts what precedes the solve: the gateway's routing decision
// (when the workload has a gateway), then the backend's decode + validation.
func (e *enactor) admit(body []byte, req *serve.Request) error {
	if e.ring != nil {
		id := e.tr.begin("cluster.route", "cluster")
		err := decode(body, req)
		if err == nil {
			if e.w.stream {
				err = serve.NormalizeStream(req, e.maxGridN, 0)
			} else {
				err = serve.Normalize(req, e.maxGridN)
			}
		}
		e.ring.Assign(serve.ShapeKey(req, &e.kb))
		e.tr.end(id)
		if err != nil {
			return err
		}
	}
	id := e.tr.begin("serve.decode", "serve")
	err := decode(body, req)
	if err == nil {
		if e.w.stream {
			err = serve.NormalizeStream(req, e.maxGridN, 0)
		} else {
			err = serve.Normalize(req, e.maxGridN)
		}
	}
	e.tr.end(id)
	return err
}

func (e *enactor) replica(req *serve.Request) *replica {
	return e.replicas[shape{req.Problem, req.N}]
}

// load fills the request's problem outside any span and returns its replica.
func (e *enactor) load(body []byte) (*replica, error) {
	var req serve.Request
	if err := decode(body, &req); err != nil {
		return nil, err
	}
	req.Steps = 0 // only the shape, seed and bound matter here
	if err := serve.Normalize(&req, e.maxGridN); err != nil {
		return nil, err
	}
	r := e.replica(&req)
	return r, r.refill(req.Seed, req.Bound)
}

// golden solves a request's problem (a stream's first step) with the
// certified reference solver, before the request's spans begin.
func (e *enactor) golden(body []byte) ([]float64, error) {
	r, err := e.load(body)
	if err != nil {
		return nil, err
	}
	u, err := core.GoldenSolve(context.Background(), r.sys.pdeSystem, r.start)
	if err != nil {
		return nil, err
	}
	return append([]float64(nil), u...), nil
}

// newtonOpts is the digital polish configuration core.Solve defaults to.
func (e *enactor) newtonOpts() nonlin.NewtonOptions {
	return nonlin.NewtonOptions{Tol: 1e-12, MaxIter: 400, AutoDamp: true, Procs: e.opts.Procs}
}

// unary re-enacts one buffered request, then replays its Newton polish alone.
func (e *enactor) unary(i int, body []byte, sample bool) (account, error) {
	ctx := context.Background()
	a := account{ladderSpan: -1, seedSpan: -1, newtonSpan: -1, sampled: sample}
	var req serve.Request
	var gold []float64
	if sample {
		var err error
		if gold, err = e.golden(body); err != nil {
			return a, err
		}
	}

	e.tr.request = i
	root := e.tr.begin("request", "bench")
	if err := e.admit(body, &req); err != nil {
		return a, err
	}
	id := e.tr.begin("cache.key", "cache")
	key := serve.SolveKey(&req, &e.kb)
	bucket := bucketKey(&req, &e.kb)
	e.tr.end(id)

	r := e.replica(&req)
	id = e.tr.begin("serve.refill", "serve")
	err := r.refill(req.Seed, req.Bound)
	if err == nil {
		// The worker evaluates the start's residual before the ladder runs.
		if err = r.sys.Eval(r.start, r.f); err == nil {
			la.Norm2(r.f)
		}
	}
	e.tr.end(id)
	if err != nil {
		return a, err
	}

	e.bind.on, e.bind.key, e.bind.bucket, e.bind.hitMeta = true, key, bucket, nil
	e.bind.coords = [2]float64{req.Re, req.Bound}
	opts := e.opts
	if r.u0 != nil {
		opts.InitialGuess = r.u0
	}
	a.ladderSpan = e.tr.begin("core.ladder", "core")
	seedSpans := len(e.tr.spans)
	rep, err := e.ladder.Solve(ctx, r.sys, opts, e.lopts)
	e.tr.end(a.ladderSpan)
	if err != nil {
		return a, err
	}
	a.modelSeconds = rep.TotalSeconds
	a.digital = rep.Digital
	a.analogUsed = rep.AnalogUsed
	if fb := rep.Fallback; fb != nil {
		a.rungAttempts = len(fb.Attempts)
		a.seedRejected = fb.SeedRejections > 0
		a.degraded = fb.Degraded
	}
	a.seedAccepted = rep.AnalogUsed && !rep.SeedRejected
	for k := seedSpans; k < len(e.tr.spans); k++ {
		if e.tr.spans[k].Name == "analog.seed" {
			a.seedSpan = k
		}
	}
	if e.seeder != nil && rep.AnalogUsed {
		a.settleTau = e.seeder.settleTau
	}
	if gold != nil {
		a.goldenRMS = stats.RMSError(rep.U, gold, 0)
		if e.seeder != nil && rep.AnalogUsed {
			a.seedRMS = stats.RMSError(e.seeder.seed, gold, 1.5*req.Bound)
		}
	}
	if e.bind.hitMeta == nil && rep.Digital.Converged {
		id = e.tr.begin("cache.put", "cache")
		e.store.Put(key, bucket, e.bind.coords[:], rep.U, &core.CachedSolve{
			Converged: true, Iterations: rep.Digital.TotalIters, Residual: rep.FinalResidual,
			SeedResidual: rep.SeedResidual, AnalogUsed: rep.AnalogUsed,
			Seconds: rep.TotalSeconds, EnergyJ: rep.TotalEnergyJ,
		})
		e.tr.end(id)
	}
	id = e.tr.begin("serve.encode", "serve")
	resp := serve.Response{
		Problem: req.Problem, Dim: r.sys.Dim(), Converged: rep.Digital.Converged,
		Iterations: rep.Digital.TotalIters, Residual: rep.FinalResidual,
		SeedResidual: rep.SeedResidual, AnalogUsed: rep.AnalogUsed, SeedAccepted: a.seedAccepted,
		ModelSeconds: rep.TotalSeconds, ModelEnergyJ: rep.TotalEnergyJ,
		Degraded: a.degraded, RungAttempts: a.rungAttempts,
	}
	err = json.NewEncoder(io.Discard).Encode(&resp)
	e.tr.end(id)
	e.tr.end(root)
	if err != nil {
		return a, err
	}

	if e.bind.hitMeta != nil {
		return a, nil // a replay runs no Newton
	}
	// The polish alone, from the start it had inside the ladder: the accepted
	// analog seed, or the pristine start.
	start := r.start
	if a.seedAccepted {
		start = e.seeder.seed
	}
	a.newtonSpan = e.tr.begin("nonlin.newton", "nonlin")
	res, err := e.solver.Solve(ctx, r.sys, start, e.newtonOpts())
	e.tr.end(a.newtonSpan)
	if err != nil {
		return a, err
	}
	if res.TotalIters != rep.Digital.TotalIters {
		a.fail = fmt.Sprintf("newton replay took %d iterations, the ladder's polish %d", res.TotalIters, rep.Digital.TotalIters)
	}
	a.kern, err = e.timeKernels(r, start)
	return a, err
}

// kernelTimes is one timing of each linear-algebra kernel on a request's own
// Jacobian, taken right after its Newton replay: the machine's speed drifts
// over seconds, so a kernel time is only comparable with spans recorded next
// to it.
type kernelTimes struct {
	factorUs, trisolveUs, spmvUs, normUs float64
	madds                                int64 // exact
	bandBytes                            int   // computed from n, kl, ku
}

func (e *enactor) timeKernels(r *replica, u []float64) (kernelTimes, error) {
	var k kernelTimes
	sys := r.sys.pdeSystem
	if err := sys.Eval(u, r.f); err != nil {
		return k, err
	}
	j, err := sys.JacobianCSR(u)
	if err != nil {
		return k, err
	}
	kl, ku := la.Bandwidths(j)
	t0 := time.Now()
	if err := la.FactorBandLUInto(&e.lu, j, kl, ku); err != nil {
		return k, err
	}
	t1 := time.Now()
	if err := e.lu.Solve(r.delta, r.f); err != nil {
		return k, err
	}
	t2 := time.Now()
	j.MulVec(r.delta, u)
	t3 := time.Now()
	la.Norm2(r.f)
	t4 := time.Now()
	us := func(a, b time.Time) float64 { return float64(b.Sub(a)) / 1e3 }
	k.factorUs, k.trisolveUs, k.spmvUs, k.normUs = us(t0, t1), us(t1, t2), us(t2, t3), us(t3, t4)
	k.madds = e.lu.FactorOps
	k.bandBytes = j.Rows() * (2*kl + ku + 1) * 8
	return k, nil
}

// frameChecksum is the digest every streamed frame carries: FNV-64a over the
// little-endian float64 bits of the step's solution.
func frameChecksum(u []float64) string {
	h := fnv.New64a()
	var buf [8]byte
	for _, v := range u {
		bits := math.Float64bits(v)
		for i := 0; i < 8; i++ {
			buf[i] = byte(bits >> (8 * i))
		}
		h.Write(buf[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// trajectory re-enacts one stream: the real TimeLoop through the ladder with
// chord reuse, each frame encoded as the service encodes it; then the bare
// chord-Newton time loop alone.
func (e *enactor) trajectory(i int, body []byte, sample bool) (account, error) {
	ctx := context.Background()
	a := account{ladderSpan: -1, seedSpan: -1, newtonSpan: -1, sampled: sample}
	var req serve.Request
	var gold []float64
	if sample {
		var err error
		if gold, err = e.golden(body); err != nil {
			return a, err
		}
	}
	e.tr.request = i
	root := e.tr.begin("request", "bench")
	if err := e.admit(body, &req); err != nil {
		return a, err
	}
	r := e.replica(&req)
	id := e.tr.begin("serve.refill", "serve")
	err := r.refill(req.Seed, req.Bound)
	e.tr.end(id)
	if err != nil {
		return a, err
	}
	e.bind.on = false
	opts := e.opts
	opts.Newton.Chord = true
	a.ladderSpan = e.tr.begin("core.timeloop", "core")
	stepStart := time.Now()
	tl := core.TimeLoopOptions{Steps: req.Steps, Dt: req.Dt, Ladder: e.ladder, Lopts: e.lopts}
	rep, err := core.TimeLoop(ctx, r.sys, opts, tl, func(f *core.Frame) error {
		a.stepMs = append(a.stepMs, ms(time.Since(stepStart)))
		if f.Step == 1 && gold != nil {
			a.goldenRMS = stats.RMSError(f.U, gold, 0)
		}
		a.rungAttempts++ // one ladder solve per step; fall-through shows as degraded
		a.degraded = a.degraded || f.Degraded
		id := e.tr.begin("serve.frame", "serve")
		frame := serve.StreamFrame{
			Step: f.Step, T: f.T, Residual: f.Residual, Converged: f.Converged,
			Iterations: f.Iterations, LinearSolves: f.LinearSolves, Refactorizations: f.Refactorizations,
			Rung: string(f.Rung), Degraded: f.Degraded, Checksum: frameChecksum(f.U),
		}
		_, merr := json.Marshal(&frame)
		e.tr.end(id)
		stepStart = time.Now()
		return merr
	})
	e.tr.end(a.ladderSpan)
	e.tr.end(root)
	if err != nil {
		return a, err
	}
	a.steps = rep.Steps
	a.modelSeconds = rep.TotalSeconds
	a.digital = nonlin.Result{TotalIters: rep.TotalIterations, LinearSolves: rep.LinearSolves,
		Refactorizations: rep.Refactorizations, Attempts: rep.Steps}

	// The bare time loop: chord Newton from each previous level, no ladder.
	if err := r.refill(req.Seed, req.Bound); err != nil {
		return a, err
	}
	nopts := e.newtonOpts()
	nopts.Chord = true
	e.solver.ResetReuse()
	iters := 0
	for step := 1; step <= req.Steps; step++ {
		r.sys.InitialGuessInto(r.start)
		id := e.tr.begin("nonlin.newton", "nonlin")
		res, err := e.solver.Solve(ctx, r.sys, r.start, nopts)
		e.tr.end(id)
		if err != nil {
			return a, err
		}
		a.newtonSteps = append(a.newtonSteps, id)
		a.digital.FactorOps += res.FactorOps
		iters += res.TotalIters
		if err := r.sys.Advance(res.U); err != nil {
			return a, err
		}
	}
	if iters != rep.TotalIterations {
		a.fail = fmt.Sprintf("newton replay took %d iterations, the time loop's polish %d", iters, rep.TotalIterations)
	}
	r.sys.InitialGuessInto(r.start)
	a.kern, err = e.timeKernels(r, r.start)
	return a, err
}

// fillIdentities solves every replay identity once into the enactor's store,
// as the fleet's set-up pass fills the backends' caches.
func (e *enactor) fillIdentities(g gen) error {
	saved := e.tr
	e.setTracer(newTracer()) // a scratch tracer: set-up is not part of the trace
	defer e.setTracer(saved)
	for k := 0; k < g.identities(); k++ {
		if _, err := e.unary(k, g.identity(k), false); err != nil {
			return err
		}
	}
	return nil
}

func (e *enactor) setTracer(tr *tracer) {
	e.tr = tr
	e.bind.tr = tr
	if e.seeder != nil {
		e.seeder.tr = tr
	}
	for _, r := range e.replicas {
		r.sys.tr = tr
	}
}
