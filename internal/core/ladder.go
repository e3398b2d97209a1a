package core

import (
	"context"
	"errors"
	"fmt"

	"hybridpde/internal/nonlin"
	"hybridpde/internal/problem"
)

// Rung names one rung of the degradation ladder, ordered from the cheapest
// reuse of past work through the paper's preferred pipeline down to the
// most conservative pure-digital fallback.
type Rung string

const (
	// RungCache replays a content-addressed exact hit from the solve cache:
	// the same problem identity was solved before, so no solver stage runs.
	RungCache Rung = "cache"
	// RungWarmStart is parameter continuation: the cached solution of a
	// nearby parameter point becomes the digital Newton start, gated by the
	// same residual check as an analog seed.
	RungWarmStart Rung = "warm-start"
	// RungAnalog is the direct analog seed + digital polish pipeline.
	RungAnalog Rung = "analog"
	// RungDecomposed seeds through red-black decomposition (§6.3) — the
	// planned first rung for oversize problems, and the fallback re-tiling
	// when a full-capacity analog solve misbehaves.
	RungDecomposed Rung = "decomposed"
	// RungDigital is pure digital damped Newton from the original start.
	RungDigital Rung = "digital"
	// RungHomotopy is the global Newton homotopy (§3.2) — the last resort
	// when damped Newton diverges from every available seed.
	RungHomotopy Rung = "homotopy"
)

// RungAttempt accounts one attempted rung.
type RungAttempt struct {
	Rung Rung
	// SeedResidual and SeedRejected describe the rung's seeding stage
	// (zero/false for the unseeded rungs). The warm-start rung reports its
	// continuation candidate here, rejected by the same quality gate.
	SeedResidual float64
	SeedRejected bool
	Converged    bool
	Iterations   int
	// Seconds and EnergyJ are the rung's modelled cost; failed rungs still
	// accumulate into the final report's totals.
	Seconds float64
	EnergyJ float64
	Err     string
}

// FallbackReport is the typed degradation-ladder account attached to
// Report.Fallback.
type FallbackReport struct {
	// Attempts lists every rung tried, in order. It aliases ladder-owned
	// storage; copy it to retain beyond the ladder's next solve.
	Attempts []RungAttempt
	// Final is the rung that produced the returned solution (empty when
	// every rung failed).
	Final Rung
	// Degraded reports that Final differs from the planned first rung.
	Degraded bool
	// SeedRejections counts starts discarded by the quality gate: analog
	// seeds and warm-start continuation candidates alike.
	SeedRejections int
}

// LadderOptions tunes the degradation ladder.
type LadderOptions struct {
	// GateFactor is the seed-quality gate threshold (Options.SeedGate)
	// applied to the seeded rungs: a seed is kept only when
	// ‖F(seed)‖ ≤ GateFactor·‖F(start)‖. Default 1 — accept any seed that
	// does not make the start worse.
	GateFactor float64
}

func (o *LadderOptions) defaults() {
	if o.GateFactor <= 0 {
		o.GateFactor = 1
	}
}

// Ladder orchestrates an ordered list of pluggable rungs over core.Solve.
// One Ladder serves repeated solves (it owns reusable buffers and the
// FallbackReport storage) and must not be shared between concurrent solves.
// The happy path — first applicable rung converges — allocates nothing once
// the buffers are warm, preserving the serving hot path's zero-alloc
// contract.
type Ladder struct {
	rungs []LadderRung
	start []float64
	// warm and f are the cache-fed rungs' scratch: the candidate solution
	// buffer (also the replayed cache-hit solution) and a residual buffer.
	warm []float64
	f    []float64
	// attempts backs fb.Attempts; its capacity is fixed at construction so
	// push never grows it.
	attempts []RungAttempt
	fb       FallbackReport
	st       RungState
}

// NewLadderRungs returns a ladder that tries the given rungs in order
// (DefaultRungs gives the paper's four); buffers grow on first use. A
// rung may record up to two attempt rows per solve (a rejected seed plus
// its pristine-start polish), which bounds the attempt storage.
func NewLadderRungs(rungs ...LadderRung) *Ladder {
	return &Ladder{rungs: rungs, attempts: make([]RungAttempt, 0, 2*len(rungs))}
}

func (l *Ladder) ensure(dim int) {
	if len(l.start) != dim {
		l.start = make([]float64, dim)
		l.warm = make([]float64, dim)
		l.f = make([]float64, dim)
	}
}

//pdevet:noalloc
func (l *Ladder) push(a RungAttempt) {
	// The backing slice capacity is fixed at 2×rungs in NewLadderRungs, so
	// this append never grows.
	l.fb.Attempts = append(l.fb.Attempts, a) //pdevet:allow noalloc append into fixed-capacity attempts backing slice, never grows
	if a.SeedRejected {
		l.fb.SeedRejections++
	}
}

// isCtxErr reports whether err carries a context cancellation or deadline —
// the one failure class the ladder must not paper over with more rungs.
func isCtxErr(err error) bool {
	return err != nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded))
}

// Solve runs the degradation ladder — by default analog seed → decomposed
// seed → pure digital damped Newton → Newton homotopy, with the cache and
// warm-start rungs ahead of analog when configured — stopping at the first
// rung that converges. Every rung restarts from the same snapshot of the
// initial guess. Failed rungs are accounted in the returned report's totals
// (their modelled time and energy were genuinely spent) and itemised in
// Report.Fallback; skipped rungs leave no trace, so a ladder whose optional
// rungs all skip reports bit-identically to one built without them.
//
// A context cancellation or deadline aborts the ladder immediately; any
// other rung failure falls through to the next rung. When every rung fails
// the last error is returned wrapped.
//
//pdevet:noalloc
func (l *Ladder) Solve(ctx context.Context, sys problem.SparseSystem, opts Options, lopts LadderOptions) (Report, error) {
	lopts.defaults()
	opts.defaults()
	dim := sys.Dim()
	l.ensure(dim)
	// Snapshot the start so every rung begins from the same iterate.
	if opts.InitialGuess != nil {
		if len(opts.InitialGuess) != dim {
			return Report{}, errors.New("core: initial guess has wrong dimension")
		}
		copy(l.start, opts.InitialGuess)
	} else if g, ok := sys.(problem.WarmStarter); ok {
		g.InitialGuessInto(l.start)
	} else {
		copy(l.start, sys.InitialGuess())
	}
	opts.InitialGuess = l.start
	if opts.SeedGate <= 0 {
		opts.SeedGate = lopts.GateFactor
	}

	l.fb.Attempts = l.attempts[:0]
	l.fb.Final = ""
	l.fb.Degraded = false
	l.fb.SeedRejections = 0

	st := &l.st
	*st = RungState{Sys: sys, Opts: opts, Lopts: lopts, Dim: dim, l: l}

	var lastErr error
	var spentSeconds, spentEnergy float64
	for _, r := range l.rungs {
		rep, done, err := r.Try(ctx, st)
		if isCtxErr(err) {
			return rep, err
		}
		if done {
			return l.finish(rep, spentSeconds, spentEnergy), nil
		}
		lastErr = coalesceErr(err, lastErr)
		spentSeconds += rep.TotalSeconds
		spentEnergy += rep.TotalEnergyJ
	}

	if lastErr == nil {
		lastErr = nonlin.ErrNoConvergence
	}
	rep := Report{Fallback: &l.fb, TotalSeconds: spentSeconds, TotalEnergyJ: spentEnergy}
	return rep, fmt.Errorf("core: degradation ladder exhausted after %d rungs: %w", len(l.fb.Attempts), lastErr) //pdevet:allow noalloc error path
}

// finish attaches the fallback account and folds the cost of earlier failed
// rungs into the totals.
//
//pdevet:noalloc
func (l *Ladder) finish(rep Report, spentSeconds, spentEnergy float64) Report {
	rep.TotalSeconds += spentSeconds
	rep.TotalEnergyJ += spentEnergy
	rep.Fallback = &l.fb
	return rep
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// coalesceErr keeps the most recent rung failure for the exhausted-ladder
// wrap.
func coalesceErr(err, prev error) error {
	if err != nil {
		return err
	}
	return prev
}
