package serve

import (
	"context"
	"fmt"
	"math/rand"

	"hybridpde/internal/analog"
	"hybridpde/internal/cache"
	"hybridpde/internal/core"
	"hybridpde/internal/fault"
	"hybridpde/internal/la"
	"hybridpde/internal/pde"
	"hybridpde/internal/problem"
)

// maxAnalogVars is the practical accelerator capacity limit (paper Table 4:
// a 16×16 grid is the largest direct analog solve).
var maxAnalogVars = analog.VariablesForGrid(analog.MaxPracticalGrid)

// worker is one execution context of the pool. It owns a core.Workspace
// for its whole life, a deterministic RNG, per-shape cached problems, and
// lazily-built analog resources, so the steady-state request path — a
// same-shaped solve hitting a warm cache — performs no allocation. Workers
// are checked out of the server's channel for the duration of one request,
// so none of this state is ever shared between concurrent solves.
type worker struct {
	ws   *core.Workspace
	rng  *rand.Rand
	grid map[gridKey]*gridEntry
	// seeders caches one analog seeder per requested capacity; the fabric
	// mismatch draw is deterministic in the server seed, so equal requests
	// get equal accelerators regardless of which worker serves them.
	seeders map[int]core.Seeder
	seed    int64 // server base seed for accelerators
	// ladder orchestrates the degradation ladder over the workspace;
	// lopts/gate come from the server config.
	ladder *core.Ladder
	lopts  core.LadderOptions
	gate   float64
	// faults, when non-nil, is attached (salted) to every accelerator this
	// worker builds.
	faults *fault.Spec
	// procs is the per-solve worker count (Config.SolveProcs); the
	// workspace's sparse solver owns the actual goroutine pool.
	procs int
	// store is the server-shared solve cache (nil when disabled); bind
	// adapts it to the ladder's cache rungs one request at a time, and kb
	// builds content keys without allocating.
	store *cache.Store
	bind  cacheBinding
	kb    cache.KeyBuilder
}

// gridKey identifies a cached problem shape. Every field the constructors
// bake into the stencil participates; the per-request seed and bound do not
// (they only change field values, which refill overwrites in place).
type gridKey struct {
	kind  string
	n     int
	order int
	re    float64
}

// gridEntry is one cached problem with its per-shape scratch vectors.
type gridEntry struct {
	sys     problem.SparseSystem
	burgers *pde.Burgers       // 2-D kinds
	steady  *pde.BurgersSteady // steady kind only
	b1d     *pde.Burgers1D     // 1-D kind
	root    []float64          // steady kind: the planted root
	u0      []float64          // steady kind: perturbed start (InitialGuess)
	guess   []float64          // warm-start snapshot for the initial residual
	f       []float64          // residual scratch
}

func newWorker(cfg *Config, seed int64, store *cache.Store) *worker {
	wk := &worker{
		ws:      core.NewWorkspace(),
		rng:     rand.New(rand.NewSource(seed)),
		grid:    map[gridKey]*gridEntry{},
		seeders: map[int]core.Seeder{},
		seed:    seed,
		lopts:   core.LadderOptions{GateFactor: cfg.SeedGate},
		gate:    cfg.SeedGate,
		faults:  cfg.Faults,
		procs:   cfg.SolveProcs,
		store:   store,
	}
	wk.bind.store = store
	// The ladder always carries all six rungs; with no cache bound the
	// cache and warm-start rungs skip without a trace, so the report is
	// bit-identical to the four-rung ladder.
	wk.ladder = core.NewLadderRungs(core.CachedRungs(&wk.bind)...)
	return wk
}

// run executes one admitted request. Cold paths (first request of a shape,
// first analog capacity) build and cache their resources; everything after
// that happens in the allocation-free solveGrid.
func (wk *worker) run(ctx context.Context, req *Request, resp *Response) error {
	e, opts, err := wk.prepare(req)
	if err != nil {
		return err
	}
	resp.Dim = e.sys.Dim()
	return wk.solveGrid(ctx, req, e, opts, resp)
}

// prepare is the front half run and stream share: look up (or build) the
// cached problem of the request's shape, refill its fields from the request
// seed, and assemble the solve options every grid request starts from —
// the worker's Workspace, the priced backend, the per-solve
// parallelism and the analog seeder when the request asks for one.
func (wk *worker) prepare(req *Request) (*gridEntry, core.Options, error) {
	opts := core.Options{
		Workspace:  wk.ws,
		Perf:       backendFor(req.Backend),
		Procs:      wk.procs,
		SkipAnalog: !req.Analog,
	}
	e, err := wk.entry(req)
	if err != nil {
		return nil, opts, err
	}
	if err := wk.refill(req, e); err != nil {
		return nil, opts, err
	}
	if req.Analog {
		if opts.Seeder, err = wk.seederFor(req.AnalogVars); err != nil {
			return nil, opts, err
		}
	}
	return e, opts, nil
}

// entry returns the cached problem of the request's shape, building it on
// first use.
func (wk *worker) entry(req *Request) (*gridEntry, error) {
	key := gridKey{kind: req.Problem, n: req.N, order: req.Order, re: req.Re}
	if e, ok := wk.grid[key]; ok {
		return e, nil
	}
	e := &gridEntry{}
	switch req.Problem {
	case KindBurgers2D, KindBurgersSteady:
		b, err := pde.NewBurgers(req.N, req.Re)
		if err != nil {
			return nil, err
		}
		b.Order = req.Order
		e.burgers = b
		e.sys = b
		if req.Problem == KindBurgersSteady {
			e.steady = pde.NewBurgersSteady(b)
			e.sys = e.steady
			e.root = make([]float64, e.steady.Dim())
			e.u0 = make([]float64, e.steady.Dim())
		}
	case KindBurgers1D:
		b, err := pde.NewBurgers1D(req.N, req.Re)
		if err != nil {
			return nil, err
		}
		e.b1d = b
		e.sys = b
	default:
		return nil, fmt.Errorf("serve: unknown problem kind %q", req.Problem)
	}
	e.guess = make([]float64, e.sys.Dim())
	e.f = make([]float64, e.sys.Dim())
	wk.grid[key] = e
	return e, nil
}

// seederFor returns the cached analog seeder for the given accelerator
// capacity, building the accelerator on first use. The accelerator seed
// folds in the capacity so differently-sized fabrics draw independent
// mismatch, while staying deterministic in the server seed. In chaos mode
// the configured fault spec is compiled into an injector with the same
// salt, so the fault sequence is equally deterministic.
func (wk *worker) seederFor(vars int) (core.Seeder, error) {
	if s, ok := wk.seeders[vars]; ok {
		return s, nil
	}
	tiles := analog.PrototypeChip.Tiles
	chips := (vars + tiles - 1) / tiles
	acc := analog.NewAccelerator(analog.Config{Chips: chips, Seed: wk.seed + int64(vars)})
	if wk.faults != nil {
		inj, err := fault.New(wk.faults, wk.seed+int64(vars))
		if err != nil {
			return nil, fmt.Errorf("serve: fault spec: %w", err)
		}
		acc.SetInjector(inj)
	}
	s := core.AnalogSeeder(acc)
	wk.seeders[vars] = s
	return s, nil
}

// refill rewrites the cached problem's fields in place from the request
// seed, so equal requests are bit-identical and repeated requests allocate
// nothing. Steady problems are additionally re-rooted: a root is planted
// inside the dynamic range and the forcing set so it solves exactly, with
// the start perturbed off it (the repeated-Newton benchmark protocol).
//
//pdevet:noalloc
func (wk *worker) refill(req *Request, e *gridEntry) error {
	wk.rng.Seed(req.Seed)
	bound := req.Bound
	switch {
	case e.b1d != nil:
		b := e.b1d
		wk.drawInto(b.UPrev, bound)
		wk.drawInto(b.RHS, bound)
		b.Left = bound * wk.uniform()
		b.Right = bound * wk.uniform()
	case e.steady != nil:
		b := e.burgers
		wk.drawInto(b.UPrev, bound)
		wk.drawInto(b.VPrev, bound)
		wk.drawInto(e.root, bound)
		if err := e.steady.SetRHSForRoot(e.root); err != nil {
			return err
		}
		for i := range e.u0 {
			e.u0[i] = e.root[i] + float64(0.05*bound*wk.uniform())
		}
	default:
		b := e.burgers
		wk.drawInto(b.UPrev, bound)
		wk.drawInto(b.VPrev, bound)
		wk.drawInto(b.RHS0, bound)
		wk.drawInto(b.RHS1, bound)
	}
	return nil
}

// drawInto fills dst uniformly from ±bound.
//
//pdevet:noalloc
func (wk *worker) drawInto(dst []float64, bound float64) {
	for i := range dst {
		dst[i] = bound * wk.uniform()
	}
}

// uniform draws one value uniformly from ±1. The conversion keeps the
// scaling multiply inside rand's Float64 out of a fused multiply-add with
// the doubling, so the draw has the same bits on every architecture.
//
//pdevet:noalloc
func (wk *worker) uniform() float64 { return 2*float64(wk.rng.Float64()) - 1 }

// solveGrid is the hot request path: run the hybrid pipeline over the
// prepared problem with the worker's Workspace, and fill the
// response. With a warm per-shape cache this stays at 0 allocs/op — the
// property that lets the service absorb sustained same-shaped traffic
// without GC pressure (TestServerSteadyPathZeroAlloc pins it dynamically).
//
//pdevet:noalloc
func (wk *worker) solveGrid(ctx context.Context, req *Request, e *gridEntry, opts core.Options, resp *Response) error {
	if wk.store != nil {
		wk.bind.rebind(true, SolveKey(req, &wk.kb), solveCacheBucket(req, &wk.kb), req.Re, req.Bound)
	} else {
		wk.bind.rebind(false, cache.Key{}, cache.Key{}, 0, 0)
	}

	if e.u0 != nil {
		opts.InitialGuess = e.u0
	}

	// Initial residual at the start the solve will use — the baseline the
	// analog-seed acceptance metric compares against.
	start := e.u0
	if start == nil {
		if ws, ok := e.sys.(problem.WarmStarter); ok {
			ws.InitialGuessInto(e.guess)
		} else {
			copy(e.guess, e.sys.InitialGuess())
		}
		start = e.guess
	}
	if err := e.sys.Eval(start, e.f); err != nil {
		return err
	}
	resp.InitialResidual = la.Norm2(e.f)

	rep, err := wk.ladder.Solve(ctx, e.sys, opts, wk.lopts)
	resp.Converged = rep.Digital.Converged
	resp.Iterations = rep.Digital.TotalIters
	resp.Residual = rep.FinalResidual
	resp.SeedResidual = rep.SeedResidual
	resp.AnalogUsed = rep.AnalogUsed
	resp.SeedAccepted = rep.AnalogUsed && !rep.SeedRejected && rep.SeedResidual < resp.InitialResidual
	resp.Decomposed = rep.Decomposed
	resp.Subproblems = rep.Subproblems
	resp.GSSweeps = rep.GSSweeps
	resp.ModelSeconds = rep.TotalSeconds
	resp.ModelEnergyJ = rep.TotalEnergyJ
	if fb := rep.Fallback; fb != nil {
		resp.fallback = fb
		resp.Degraded = fb.Degraded
		resp.Rung = string(fb.Final)
		resp.SeedRejected = fb.SeedRejections > 0
		resp.RungAttempts = len(fb.Attempts)
	}
	resp.cacheOn = wk.bind.on
	if hit := wk.bind.hit; hit != nil {
		// Exact hit: replay the original response's ladder summary so a
		// repeated request gets a byte-identical body (the cache's
		// existence is visible in /metrics, not in the response).
		resp.cacheHit = true
		resp.SeedAccepted = hit.seedAccepted
		resp.Degraded = hit.degraded
		resp.Rung = hit.rung
		resp.SeedRejected = hit.seedRejected
		resp.RungAttempts = hit.rungAttempts
	} else if fb := rep.Fallback; wk.bind.on && fb != nil {
		if fb.Final == core.RungWarmStart {
			resp.cacheWarm = true
		}
		for i := range fb.Attempts {
			if fb.Attempts[i].Rung == core.RungWarmStart && fb.Attempts[i].SeedRejected {
				resp.cacheStale = true
			}
		}
		if err == nil && rep.Digital.Converged {
			wk.cachePut(&rep, resp)
		}
	}
	return err
}

// cachePut stores a cold (or warm-started) converged solve for future
// exact replays and warm starts. Deliberately not on the noalloc path: a
// Put happens at most once per distinct request identity; steady repeat
// traffic is all hits.
func (wk *worker) cachePut(rep *core.Report, resp *Response) {
	meta := &cachedSolve{
		core: core.CachedSolve{
			Converged: rep.Digital.Converged, Iterations: rep.Digital.TotalIters,
			Residual: rep.FinalResidual, SeedResidual: rep.SeedResidual,
			AnalogUsed: rep.AnalogUsed, Decomposed: rep.Decomposed,
			Subproblems: rep.Subproblems, GSSweeps: rep.GSSweeps,
			Seconds: rep.TotalSeconds, EnergyJ: rep.TotalEnergyJ,
		},
		seedAccepted: resp.SeedAccepted,
		degraded:     resp.Degraded,
		rung:         resp.Rung,
		seedRejected: resp.SeedRejected,
		rungAttempts: resp.RungAttempts,
	}
	wk.store.Put(wk.bind.key, wk.bind.bucket, wk.bind.coords[:], rep.U, meta)
}

// backendFor maps the request backend name to its PerfBackend; normalize
// has already rejected unknown names.
func backendFor(name string) core.PerfBackend {
	switch name {
	case "gpu":
		return core.PerfGPU
	case "analog-la":
		return core.PerfAnalogLA
	default:
		return core.PerfCPU
	}
}
