package core

import (
	"context"

	"hybridpde/internal/la"
	"hybridpde/internal/nonlin"
	"hybridpde/internal/problem"
)

// LadderRung is one pluggable rung of the degradation ladder. A rung
// inspects the shared per-solve state, decides whether it applies, and
// either skips (zero Report, done false, nil error), serves the solve
// (done true), or fails through to the next rung (done false with the
// rung's Report cost and error). Rungs record their attempts through
// RungState.Push so the FallbackReport stays a faithful per-rung account.
//
// Rung implementations must be reusable across solves and must not retain
// state between calls beyond what RungState carries; the same rung value
// serves every solve of its ladder.
type LadderRung interface {
	// Name is the rung's identifier in reports and metrics.
	Name() Rung
	// Try attempts the rung. A context cancellation or deadline must be
	// returned unwrapped enough for errors.Is; the ladder aborts on it.
	Try(ctx context.Context, st *RungState) (rep Report, done bool, err error)
}

// RungState is the shared state of one ladder solve, handed to every rung
// in order. The embedded options are the defaulted solve options with
// InitialGuess pointing at the ladder's pristine-start snapshot; rungs that
// need different options must copy Opts before mutating the copy.
type RungState struct {
	// Sys is the system being solved.
	Sys problem.SparseSystem
	// Opts is the defaulted per-solve options snapshot.
	Opts Options
	// Lopts is the defaulted ladder options.
	Lopts LadderOptions
	// Dim caches Sys.Dim().
	Dim int

	l *Ladder
	// first is the rung of the first recorded attempt: the planned first
	// rung, against which Degraded is judged.
	first Rung
	// digitalTried marks that damped Newton from the pristine start already
	// ran (deterministically) inside an earlier rung, so the standalone
	// digital rung would only repeat a known outcome.
	digitalTried bool
	// directAnalog marks that the seeded rung ran a direct (undecomposed)
	// analog solve, which is what the forced-decomposition rung retries.
	directAnalog bool
}

// Push records one attempt row. The first pushed row fixes the planned
// first rung that Degraded is judged against.
//
//pdevet:noalloc
func (st *RungState) Push(a RungAttempt) {
	if len(st.l.fb.Attempts) == 0 {
		st.first = a.Rung
	}
	st.l.push(a)
}

// conclude marks the serving rung in the fallback account.
//
//pdevet:noalloc
func (st *RungState) conclude(rung Rung) {
	st.l.fb.Final = rung
	st.l.fb.Degraded = rung != st.first
}

// seeded reports whether the solve is configured with an analog seeding
// stage at all.
func (st *RungState) seeded() bool {
	return st.Opts.Seeder != nil && !st.Opts.SkipAnalog
}

// seedOutcome records the attempt rows of one seeded Solve call and decides
// whether the ladder is finished. A call whose seed was rejected by the
// gate has already polished from the pristine start, i.e. it ran the
// digital rung too; both rows are recorded and a converged polish ends the
// ladder at RungDigital.
//
//pdevet:noalloc
func (st *RungState) seedOutcome(rung Rung, rep Report, err error) (Report, bool, error) {
	conv := err == nil && rep.Digital.Converged
	if rep.SeedRejected {
		st.Push(RungAttempt{
			Rung: rung, SeedResidual: rep.SeedResidual, SeedRejected: true,
			Seconds: rep.AnalogSeconds, EnergyJ: rep.AnalogEnergyJ,
		})
		if st.digitalTried {
			// The polish from the pristine start already ran (and failed)
			// deterministically in an earlier rejected rung; its repeat
			// outcome adds no information.
			return rep, false, err
		}
		st.digitalTried = true
		st.Push(RungAttempt{
			Rung: RungDigital, Converged: conv, Iterations: rep.Digital.TotalIters,
			Seconds: rep.DigitalSeconds, EnergyJ: rep.DigitalEnergyJ, Err: errString(err),
		})
		if conv {
			st.conclude(RungDigital)
			return rep, true, nil
		}
		return rep, false, err
	}
	st.Push(RungAttempt{
		Rung: rung, SeedResidual: rep.SeedResidual, Converged: conv,
		Iterations: rep.Digital.TotalIters,
		Seconds:    rep.TotalSeconds, EnergyJ: rep.TotalEnergyJ, Err: errString(err),
	})
	if conv {
		st.conclude(rung)
		return rep, true, nil
	}
	return rep, false, err
}

// ---------------------------------------------------------------------------
// The paper's four standard rungs.

// AnalogRung is the configured seeding policy: direct analog when the
// problem fits the accelerator, red-black decomposed otherwise. Skipped for
// unseeded solves. Its attempt row is named after what actually ran
// (RungAnalog or RungDecomposed).
func AnalogRung() LadderRung { return analogRung{} }

type analogRung struct{}

func (analogRung) Name() Rung { return RungAnalog }

//pdevet:noalloc
func (analogRung) Try(ctx context.Context, st *RungState) (Report, bool, error) {
	if !st.seeded() {
		return Report{}, false, nil
	}
	rep, err := Solve(ctx, st.Sys, st.Opts)
	if isCtxErr(err) {
		return rep, false, err
	}
	rung := RungAnalog
	if rep.Decomposed {
		rung = RungDecomposed
	} else {
		st.directAnalog = true
	}
	return st.seedOutcome(rung, rep, err)
}

// DecomposedRung is the forced re-tiling fallback: when a direct
// full-capacity analog solve misbehaved and the problem can be tiled, the
// same accelerators retry through red-black decomposition with tiles capped
// at roughly half the problem.
func DecomposedRung() LadderRung { return decomposedRung{} }

type decomposedRung struct{}

func (decomposedRung) Name() Rung { return RungDecomposed }

//pdevet:noalloc
func (decomposedRung) Try(ctx context.Context, st *RungState) (Report, bool, error) {
	if !st.seeded() || !st.directAnalog {
		return Report{}, false, nil
	}
	fb := FallbackSeeder(st.Opts.Seeder, st.Dim)
	if fb == nil {
		return Report{}, false, nil
	}
	if _, ok := st.Sys.(problem.Decomposable); !ok {
		return Report{}, false, nil
	}
	dopts := st.Opts
	dopts.Seeder = fb
	rep, err := Solve(ctx, st.Sys, dopts)
	if isCtxErr(err) {
		return rep, false, err
	}
	return st.seedOutcome(RungDecomposed, rep, err)
}

// DigitalRung is pure digital damped Newton from the pristine start —
// skipped when a rejected seed above already ran exactly this
// (deterministically).
func DigitalRung() LadderRung { return digitalRung{} }

type digitalRung struct{}

func (digitalRung) Name() Rung { return RungDigital }

//pdevet:noalloc
func (digitalRung) Try(ctx context.Context, st *RungState) (Report, bool, error) {
	if st.digitalTried {
		return Report{}, false, nil
	}
	dopts := st.Opts
	dopts.SkipAnalog = true
	rep, err := Solve(ctx, st.Sys, dopts)
	if isCtxErr(err) {
		return rep, false, err
	}
	st.digitalTried = true
	conv := err == nil && rep.Digital.Converged
	st.Push(RungAttempt{
		Rung: RungDigital, Converged: conv, Iterations: rep.Digital.TotalIters,
		Seconds: rep.TotalSeconds, EnergyJ: rep.TotalEnergyJ, Err: errString(err),
	})
	if conv {
		st.conclude(RungDigital)
		return rep, true, nil
	}
	return rep, false, err
}

// HomotopyRung is the last-resort global Newton homotopy on the banded
// Newton loop. Its corrector uses the homotopy's own settings, not
// Options.Newton (only Procs carries over), so a crippled polish
// configuration cannot drag the last-resort rung down. It runs on its own
// solver workspace, so a stream's chord state in Options.Workspace is
// untouched.
func HomotopyRung() LadderRung { return homotopyRung{} }

type homotopyRung struct{}

func (homotopyRung) Name() Rung { return RungHomotopy }

// Try runs the homotopy and prices its work through the configured perf
// backend. Only reached after at least one failed rung, so allocation is
// acceptable here.
func (homotopyRung) Try(ctx context.Context, st *RungState) (Report, bool, error) {
	res, err := nonlin.NewtonHomotopy(ctx, st.Sys, st.l.start, st.Opts.Newton.Procs)
	rep := Report{
		U: res.U, Digital: res, FinalResidual: res.Residual,
		DigitalSeconds: st.Opts.Perf.Time(res, st.Dim),
		DigitalEnergyJ: st.Opts.Perf.Energy(res, st.Dim),
	}
	rep.TotalSeconds = rep.DigitalSeconds
	rep.TotalEnergyJ = rep.DigitalEnergyJ
	st.Push(RungAttempt{
		Rung: RungHomotopy, Converged: res.Converged, Iterations: res.Iterations,
		Seconds: rep.TotalSeconds, EnergyJ: rep.TotalEnergyJ, Err: errString(err),
	})
	if err != nil {
		return rep, false, err
	}
	st.conclude(RungHomotopy)
	return rep, true, nil
}

// ---------------------------------------------------------------------------
// Cache-fed rungs: content-addressed exact hits and warm-start continuation.

// CachedSolve is the stored outcome of a previous solve that the cache rung
// replays: the scalar account of the solve that originally produced the
// cached solution. Seconds/EnergyJ are the original modelled totals — a
// replay costs nothing new, but the result it serves was priced once.
type CachedSolve struct {
	Converged    bool
	Iterations   int
	Residual     float64
	SeedResidual float64
	AnalogUsed   bool
	Decomposed   bool
	Subproblems  int
	GSSweeps     int
	Seconds      float64
	EnergyJ      float64
}

// SolveCache is the seam between the ladder's cache rungs and a result
// store. Implementations are bound to one solve at a time by the caller
// (which knows the problem identity and computes content-addressed keys);
// both methods must be allocation-free on the hot path.
type SolveCache interface {
	// Lookup copies the exact-hit solution into dst and returns its replay
	// account. ok=false is a miss (including a dimension mismatch).
	Lookup(dst []float64) (CachedSolve, bool)
	// Nearest copies the nearest cached neighbour's solution into dst for
	// warm starting. ok=false when no neighbour is within the caller's
	// configured radius.
	Nearest(dst []float64) bool
}

// CacheRung serves an exact content-address hit without running any solver
// stage: the stored solution and its account are replayed. A nil or
// unbound cache skips. The returned Report.U aliases ladder-owned storage.
func CacheRung(c SolveCache) LadderRung { return &cacheRung{c: c} }

type cacheRung struct{ c SolveCache }

func (r *cacheRung) Name() Rung { return RungCache }

//pdevet:noalloc
func (r *cacheRung) Try(ctx context.Context, st *RungState) (Report, bool, error) {
	if r.c == nil {
		return Report{}, false, nil
	}
	hit, ok := r.c.Lookup(st.l.warm)
	if !ok {
		// A miss is not an attempt: the report must stay bit-identical to a
		// solve with no cache configured.
		return Report{}, false, nil
	}
	st.Push(RungAttempt{Rung: RungCache, Converged: hit.Converged, Iterations: hit.Iterations})
	st.conclude(RungCache)
	rep := Report{
		U:            st.l.warm,
		AnalogUsed:   hit.AnalogUsed,
		SeedResidual: hit.SeedResidual,
		Decomposed:   hit.Decomposed,
		Subproblems:  hit.Subproblems,
		GSSweeps:     hit.GSSweeps,
		Digital: nonlin.Result{
			U: st.l.warm, Converged: hit.Converged, Residual: hit.Residual,
			Iterations: hit.Iterations, TotalIters: hit.Iterations,
		},
		FinalResidual: hit.Residual,
		TotalSeconds:  hit.Seconds,
		TotalEnergyJ:  hit.EnergyJ,
	}
	return rep, true, nil
}

// WarmStartRung is the parameter-continuation rung: the cached solution of
// the nearest previously-solved parameter point becomes the digital Newton
// start, exactly as an analog seed would. The candidate is gated by the
// same residual seed-quality gate (Options.SeedGate): a stale start —
// residual above gate × the pristine start's — is rejected with an attempt
// row, and the ladder falls through to the next rung instead of letting a
// bad continuation poison the solve.
func WarmStartRung(c SolveCache) LadderRung { return &warmStartRung{c: c} }

type warmStartRung struct{ c SolveCache }

func (r *warmStartRung) Name() Rung { return RungWarmStart }

//pdevet:noalloc
func (r *warmStartRung) Try(ctx context.Context, st *RungState) (Report, bool, error) {
	if r.c == nil {
		return Report{}, false, nil
	}
	warm := st.l.warm
	if !r.c.Nearest(warm) {
		// No neighbour: not an attempt, for the same cold-identity reason
		// as a cache miss.
		return Report{}, false, nil
	}
	f := st.l.f
	if err := st.Sys.Eval(st.l.start, f); err != nil {
		return Report{}, false, err
	}
	startRes := la.Norm2(f)
	if err := st.Sys.Eval(warm, f); err != nil {
		return Report{}, false, err
	}
	warmRes := la.Norm2(f)
	// The gate comparison is written so NaN/Inf candidate residuals fail it.
	if !(warmRes <= st.Opts.SeedGate*startRes) {
		st.Push(RungAttempt{Rung: RungWarmStart, SeedResidual: warmRes, SeedRejected: true})
		return Report{}, false, nil
	}
	dopts := st.Opts
	dopts.SkipAnalog = true
	dopts.InitialGuess = warm
	rep, err := Solve(ctx, st.Sys, dopts)
	if isCtxErr(err) {
		return rep, false, err
	}
	rep.SeedResidual = warmRes
	rep.StartResidual = startRes
	conv := err == nil && rep.Digital.Converged
	st.Push(RungAttempt{
		Rung: RungWarmStart, SeedResidual: warmRes, Converged: conv,
		Iterations: rep.Digital.TotalIters,
		Seconds:    rep.TotalSeconds, EnergyJ: rep.TotalEnergyJ, Err: errString(err),
	})
	if conv {
		st.conclude(RungWarmStart)
		return rep, true, nil
	}
	return rep, false, err
}

// DefaultRungs is the paper's original ladder: analog seed → forced
// decomposition → pure digital damped Newton → global Newton homotopy.
func DefaultRungs() []LadderRung {
	return []LadderRung{AnalogRung(), DecomposedRung(), DigitalRung(), HomotopyRung()}
}

// CachedRungs is the serving ladder: content-addressed cache and warm-start
// continuation slot in ahead of the analog stage.
func CachedRungs(c SolveCache) []LadderRung {
	return append([]LadderRung{CacheRung(c), WarmStartRung(c)}, DefaultRungs()...)
}
