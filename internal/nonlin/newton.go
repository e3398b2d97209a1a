package nonlin

import (
	"context"
	"errors"
	"fmt"
	"math"

	"hybridpde/internal/la"
	"hybridpde/internal/par"
)

// NewtonOptions configures the Newton family of solvers.
type NewtonOptions struct {
	// Tol is the convergence target on ‖F(u)‖₂. Default 1e-10.
	Tol float64
	// RelTol, when positive, relaxes the target to
	// max(Tol, RelTol·‖F(u0)‖): for large or badly scaled systems the
	// absolute residual floor is set by rounding in F itself, and an
	// absolute-only criterion can be unreachable.
	RelTol float64
	// MaxIter bounds iterations of a single damping attempt. Default 100.
	MaxIter int
	// Damping is the fixed step fraction h ∈ (0,1]; 1 is classical Newton.
	// Ignored when AutoDamp is set. Default 1.
	Damping float64
	// AutoDamp enables the paper's baseline schedule (§6.1): start at
	// h = 1.0 and halve the damping parameter after each failed attempt
	// until convergence is possible or minDamping is reached.
	AutoDamp bool
	// DivergeFactor aborts an attempt when the residual exceeds this
	// multiple of its starting value. Default 1e6.
	DivergeFactor float64
	// Procs bounds the worker count of the per-solve parallel kernels: the
	// band-LU trailing-submatrix updates and — for PoolAware systems — the
	// Jacobian assembly and residual walks fan out across a pool owned by
	// the SparseSolver. 0 and 1 run serial. Solutions, residuals and
	// iteration counts are bit-identical at every setting (the kernels
	// partition into disjoint writes in serial order). The dense Newton path
	// ignores it.
	Procs int
	// Chord enables modified-Newton (chord) iteration on the sparse path:
	// the band-LU factorization is reused — and the sharded Jacobian
	// refresh skipped entirely — across Newton iterations *and* across
	// Solve calls of the same system (implicit time stepping, where
	// consecutive steps differ by O(dt)). The factorization is refreshed
	// only when the refresh gate fires: the observed residual contraction
	// degrades past chordContraction, or the factorization's age exceeds
	// ChordMaxAge. Gate decisions depend only on residual values, which are
	// bit-identical across worker counts, so chord solves keep the
	// cross-procs bit-identity contract. The dense path ignores it.
	Chord bool
	// ChordMaxAge is the hard bound on factorization reuse: after this many
	// linear solves the Jacobian is refreshed regardless of contraction.
	// Default 64.
	ChordMaxAge int
}

const (
	// minDamping is the smallest damping AutoDamp tries before giving up.
	minDamping = 1.0 / 1024
	// chordContraction is the chord refresh-gate threshold ρ: an iteration
	// under a reused factorization must contract the residual to at most
	// ρ·previous, otherwise the Jacobian is refreshed and refactored before
	// the next linear solve.
	chordContraction = 0.5
)

func (o *NewtonOptions) defaults() {
	if o.Tol <= 0 {
		o.Tol = 1e-10
	}
	if o.MaxIter <= 0 {
		o.MaxIter = 100
	}
	if o.Damping <= 0 || o.Damping > 1 {
		o.Damping = 1
	}
	if o.DivergeFactor <= 0 {
		o.DivergeFactor = 1e6
	}
	if o.ChordMaxAge <= 0 {
		o.ChordMaxAge = 64
	}
}

// Result describes a Newton solve. The split between total and counted work
// mirrors the paper's measurement protocol: the baseline is charged only for
// the final, successful damping attempt ("we give the digital solver the
// advantage counting only the time spent using the correct damping
// parameter"), while TotalIterations includes the trial-and-error attempts.
type Result struct {
	U            []float64
	Converged    bool
	Residual     float64 // final ‖F(u)‖₂
	Iterations   int     // iterations of the successful (or last) attempt
	TotalIters   int     // iterations across all damping attempts
	LinearSolves int     // linear solves (back-substitutions), successful attempt
	// Refactorizations counts Jacobian refresh + factorization events of the
	// successful attempt. Classical Newton refactors every linear solve, so
	// it equals LinearSolves there; chord mode reuses factorizations, so
	// Refactorizations ≤ LinearSolves and the gap is the reuse win.
	Refactorizations int
	FactorOps        int64   // multiply-adds spent factoring (sparse path)
	DampingUsed      float64 // damping parameter of the successful attempt
	Attempts         int     // damping attempts tried (AutoDamp)
}

// ctxErr reports a pending cancellation wrapped so callers can test with
// errors.Is(err, context.Canceled) / context.DeadlineExceeded. A nil context
// never cancels.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("nonlin: solve aborted: %w", err)
	}
	return nil
}

// stepWork accounts one linear solve: the factorization multiply-adds spent
// (zero when a chord step reused an existing factorization) and whether the
// Jacobian was refreshed and refactored.
type stepWork struct {
	ops        int64
	refactored bool
}

// jacSolver abstracts the dense and sparse linear-solve kernels so both
// Newton variants share one iteration loop.
type jacSolver interface {
	dim() int
	eval(u, f []float64) error
	// solveStep computes delta = J⁻¹ f, returning the factorization work
	// performed. Chord-capable implementations may reuse a factorization
	// from an earlier call, in which case work.refactored is false.
	solveStep(u, f, delta []float64) (stepWork, error)
}

// attemptPrep is implemented by solvers that keep per-attempt state (the
// chord refresh gate's residual history); newtonAttempt calls it before the
// first iteration of every damping attempt.
type attemptPrep interface {
	beginAttempt()
}

type denseSolver struct {
	sys System
	jac *la.Dense
}

func (s *denseSolver) dim() int                  { return s.sys.Dim() }
func (s *denseSolver) eval(u, f []float64) error { return s.sys.Eval(u, f) }
func (s *denseSolver) solveStep(u, f, delta []float64) (stepWork, error) {
	if err := s.sys.Jacobian(u, s.jac); err != nil {
		return stepWork{}, err
	}
	lu, err := la.FactorLU(s.jac)
	if err != nil {
		return stepWork{}, err
	}
	n := int64(s.sys.Dim())
	return stepWork{ops: n * n * n / 3, refactored: true}, lu.Solve(delta, f)
}

// SparseSolver is a reusable workspace for repeated sparse Newton solves of
// same-shaped systems — the inner loop of implicit time stepping, where a
// fresh factorization workspace and iterate buffers every step would dominate
// the allocator. The zero value is ready to use; buffers grow on first solve
// and are reused while the system shape (dimension and Jacobian bandwidths)
// stays put.
//
// Result.U returned by Solve aliases the workspace iterate buffer: it is
// valid until the next Solve call. Copy it if it must outlive the workspace.
// A SparseSolver must not be used concurrently.
type SparseSolver struct {
	u, f, delta []float64
	lu          *la.BandLU
	n, kl, ku   int // shape the band workspace was sized for
	// pat is the Jacobian pattern (by pointer identity) the cached (n, kl,
	// ku) were scanned from: the stencil systems return the same refreshed
	// *la.CSR every iteration, so bandwidth scans happen once per pattern,
	// not once per iteration. The cached pattern pointer keeps the matrix
	// alive, so address reuse cannot alias a different pattern.
	pat *la.CSR
	// pool fans the per-iteration kernels out across procs workers; see
	// NewtonOptions.Procs.
	pool  *par.Pool
	procs int
	sys   SparseSystem

	// Chord-mode state (NewtonOptions.Chord): the refresh gate's view of the
	// live factorization. chordValid marks that w.lu holds a usable
	// factorization of this system; it survives across Solve calls on the
	// same system so time-stepping reuses factorizations across steps.
	// chordLastR is the residual norm observed before the previous linear
	// solve of the current attempt (negative at attempt start: the first
	// iteration of an attempt has no contraction history to judge).
	// Every field is derived from residual values and iteration counts only
	// — never wall time or worker counts — so gate decisions are
	// bit-identical across procs.
	chordOn     bool
	chordValid  bool
	chordAge    int
	chordLastR  float64
	chordMaxAge int
}

// NewSparseSolver returns an empty workspace. Equivalent to &SparseSolver{}.
func NewSparseSolver() *SparseSolver { return &SparseSolver{} }

// Solve runs the damped Newton iteration on sys from u0, reusing the
// workspace buffers. ctx may be nil; a cancelled context aborts between
// iterations with an error wrapping the context's error.
//
//pdevet:noalloc
func (w *SparseSolver) Solve(ctx context.Context, sys SparseSystem, u0 []float64, opts NewtonOptions) (Result, error) {
	n := sys.Dim()
	if len(w.u) != n {
		// Grow-on-first-use: buffers are sized once per system shape and
		// reused across every subsequent step of the time loop.
		w.u = make([]float64, n)     //pdevet:allow noalloc grow-on-first-use
		w.f = make([]float64, n)     //pdevet:allow noalloc grow-on-first-use
		w.delta = make([]float64, n) //pdevet:allow noalloc grow-on-first-use
		w.chordValid = false
	}
	w.setProcs(opts.Procs)
	if pa, ok := sys.(PoolAware); ok {
		pa.SetPool(w.pool)
	}
	opts.defaults()
	w.chordOn = opts.Chord
	w.chordMaxAge = opts.ChordMaxAge
	if w.sys != sys {
		// A different system invalidates the live factorization: chord reuse
		// across Solve calls is only sound while the Jacobian drifts by
		// O(dt) along one system's trajectory.
		w.chordValid = false
	}
	w.sys = sys
	return newtonLoop(ctx, w, u0, opts, w.u, w.f, w.delta)
}

// setProcs installs the worker pool matching the requested per-solve
// parallelism, replacing the old pool when the setting changes.
func (w *SparseSolver) setProcs(procs int) {
	if procs < 1 {
		procs = 1
	}
	if procs == w.procs {
		return
	}
	w.pool.Close()
	w.pool = nil
	if procs > 1 {
		w.pool = par.NewPool(procs)
	}
	w.procs = procs
	if w.lu != nil {
		w.lu.SetPool(w.pool)
	}
}

// Close releases the worker pool's goroutines. The solver stays usable —
// the next Solve recreates the pool its options ask for. Letting a solver
// become unreachable without Close is also fine: the pool's workers are
// reclaimed by the runtime.
func (w *SparseSolver) Close() {
	w.pool.Close()
	w.pool = nil
	w.procs = 0
	if w.lu != nil {
		w.lu.SetPool(nil)
	}
}

func (w *SparseSolver) dim() int                  { return w.sys.Dim() }
func (w *SparseSolver) eval(u, f []float64) error { return w.sys.Eval(u, f) }

// ResetReuse discards the chord-mode factorization state, so the next chord
// solve refreshes the Jacobian at its own first iterate regardless of what
// the workspace solved before. Drivers call it at trajectory start: a chord
// time loop must produce the same bits on a warm workspace as on a fresh
// one, and a factorization left over from an unrelated request would
// otherwise steer the first step's iterate sequence.
func (w *SparseSolver) ResetReuse() {
	w.chordValid = false
	w.chordAge = 0
	w.chordLastR = -1
}

// beginAttempt resets the refresh gate's residual history: the first
// iteration of a damping attempt has no contraction to judge (the iterate
// just jumped back to u0, so comparing its residual against the previous
// attempt's tail would misread the restart as divergence).
//
//pdevet:noalloc
func (w *SparseSolver) beginAttempt() {
	w.chordLastR = -1
}

// refactor refreshes the Jacobian at u and factors it into the band
// workspace, returning the factorization work.
//
//pdevet:noalloc
func (w *SparseSolver) refactor(u []float64) (int64, error) {
	j, err := w.sys.JacobianCSR(u)
	if err != nil {
		return 0, err
	}
	if j != w.pat || j.Rows() != w.n {
		// New Jacobian pattern: scan the bandwidths once and cache them
		// under the pattern's identity. The fixed-pattern stencil systems
		// return the same refreshed matrix every iteration, so the steady
		// loop never rescans.
		w.pat = j
		w.n = j.Rows()
		w.kl, w.ku = la.Bandwidths(j)
		if w.lu == nil {
			w.lu = &la.BandLU{} //pdevet:allow noalloc grow-on-first-use
			w.lu.SetPool(w.pool)
		}
	}
	if err := la.FactorBandLUInto(w.lu, j, w.kl, w.ku); err != nil {
		return 0, err
	}
	return w.lu.FactorOps, nil
}

//pdevet:noalloc
func (w *SparseSolver) solveStep(u, f, delta []float64) (stepWork, error) {
	if !w.chordOn {
		ops, err := w.refactor(u)
		if err != nil {
			return stepWork{}, err
		}
		return stepWork{ops: ops, refactored: true}, w.lu.Solve(delta, f)
	}
	// Chord mode: reuse the live factorization until the refresh gate
	// fires. The gate reads only residual norms (‖f‖ was just evaluated by
	// the shared loop; recomputing it serially here is O(n) against the
	// O(n·b²) factorization it may avoid) and the factorization age, so
	// its decisions are bit-identical across worker counts.
	r := la.Norm2(f)
	refresh := !w.chordValid || w.lu == nil ||
		w.chordAge >= w.chordMaxAge ||
		(w.chordLastR >= 0 && r > chordContraction*w.chordLastR)
	var work stepWork
	if refresh {
		ops, err := w.refactor(u)
		if err != nil {
			return stepWork{}, err
		}
		work.ops = ops
		work.refactored = true
		w.chordValid = true
		w.chordAge = 0
	}
	w.chordAge++
	w.chordLastR = r
	return work, w.lu.Solve(delta, f)
}

// Newton solves F(u) = 0 with the (optionally damped) Newton method starting
// from u0. See NewtonOptions for the damping schedule. ctx may be nil; a
// cancelled context aborts between iterations with a wrapped context error.
func Newton(ctx context.Context, sys System, u0 []float64, opts NewtonOptions) (Result, error) {
	n := sys.Dim()
	s := &denseSolver{sys: sys, jac: la.NewDense(n, n)}
	return newtonLoop(ctx, s, u0, opts, make([]float64, n), make([]float64, n), make([]float64, n))
}

// NewtonSparse is Newton for sparse-Jacobian systems; each step solves the
// banded linear system directly, the digital stand-in for the paper's GPU
// sparse QR kernel. For repeated solves of same-shaped systems use a
// SparseSolver workspace, which this function allocates fresh per call.
func NewtonSparse(ctx context.Context, sys SparseSystem, u0 []float64, opts NewtonOptions) (Result, error) {
	return NewSparseSolver().Solve(ctx, sys, u0, opts)
}

//pdevet:noalloc
func newtonLoop(ctx context.Context, s jacSolver, u0 []float64, opts NewtonOptions, u, f, delta []float64) (Result, error) {
	opts.defaults()
	n := s.dim()
	if len(u0) != n {
		return Result{}, errors.New("nonlin: initial guess has wrong dimension")
	}
	var res Result
	h := opts.Damping
	if opts.AutoDamp {
		h = 1.0
	}
	var lastErr error
	for {
		res.Attempts++
		att, err := newtonAttempt(ctx, s, u0, h, opts, u, f, delta)
		res.TotalIters += att.Iterations
		if err == nil && att.Converged {
			res.U = att.U
			res.Converged = true
			res.Residual = att.Residual
			res.Iterations = att.Iterations
			res.LinearSolves = att.LinearSolves
			res.Refactorizations = att.Refactorizations
			res.FactorOps = att.FactorOps
			res.DampingUsed = h
			return res, nil
		}
		lastErr = err
		if !opts.AutoDamp || isCtxErr(err) {
			res.U = att.U
			res.Residual = att.Residual
			res.Iterations = att.Iterations
			res.LinearSolves = att.LinearSolves
			res.Refactorizations = att.Refactorizations
			res.FactorOps = att.FactorOps
			res.DampingUsed = h
			if err == nil {
				err = ErrNoConvergence
			}
			return res, err
		}
		h /= 2
		if h < minDamping {
			res.U = att.U
			res.Residual = att.Residual
			res.Iterations = att.Iterations
			res.DampingUsed = h * 2
			if lastErr == nil {
				lastErr = ErrNoConvergence
			}
			return res, lastErr
		}
	}
}

func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

type attempt struct {
	U                []float64
	Converged        bool
	Residual         float64
	Iterations       int
	LinearSolves     int
	Refactorizations int
	FactorOps        int64
}

//pdevet:noalloc
func newtonAttempt(ctx context.Context, s jacSolver, u0 []float64, h float64, opts NewtonOptions, u, f, delta []float64) (attempt, error) {
	copy(u, u0)
	att := attempt{U: u}
	if p, ok := s.(attemptPrep); ok {
		p.beginAttempt()
	}
	if err := s.eval(u, f); err != nil {
		return att, err
	}
	r0 := la.Norm2(f)
	att.Residual = r0
	target := opts.Tol
	if opts.RelTol > 0 && opts.RelTol*r0 > target {
		target = opts.RelTol * r0
	}
	if r0 <= target {
		att.Converged = true
		return att, nil
	}
	for att.Iterations = 0; att.Iterations < opts.MaxIter; att.Iterations++ {
		if err := ctxErr(ctx); err != nil {
			return att, err
		}
		work, err := s.solveStep(u, f, delta)
		if err != nil {
			if errors.Is(err, la.ErrSingular) {
				// Failure path: the allocation happens once, on abort.
				return att, &JacobianSingularError{Iteration: att.Iterations, Err: err} //pdevet:allow noalloc error path
			}
			return att, err
		}
		att.LinearSolves++
		if work.refactored {
			att.Refactorizations++
		}
		att.FactorOps += work.ops
		la.Axpy(-h, delta, u)
		if !finite(u) {
			return att, ErrDiverged
		}
		if err := s.eval(u, f); err != nil {
			return att, err
		}
		r := la.Norm2(f)
		att.Residual = r
		if r <= target {
			att.Iterations++
			att.Converged = true
			return att, nil
		}
		if r > opts.DivergeFactor*(r0+1) || math.IsNaN(r) {
			return att, ErrDiverged
		}
	}
	return att, nil
}

func finite(x []float64) bool {
	for _, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// NewtonArmijo solves F(u) = 0 with a backtracking line search on the merit
// function ½‖F‖². It is the "more sophisticated, more costly" digital
// alternative the paper alludes to in §2.2; used in ablation benchmarks.
func NewtonArmijo(ctx context.Context, sys System, u0 []float64, opts NewtonOptions) (Result, error) {
	opts.defaults()
	n := sys.Dim()
	u := la.Copy(u0)
	f := make([]float64, n)
	delta := make([]float64, n)
	utrial := make([]float64, n)
	jac := la.NewDense(n, n)
	var res Result
	res.U = u
	res.Attempts = 1
	res.DampingUsed = 1
	if err := sys.Eval(u, f); err != nil {
		return res, err
	}
	target := opts.Tol
	if r0 := la.Norm2(f); opts.RelTol > 0 && opts.RelTol*r0 > target {
		target = opts.RelTol * r0
	}
	for res.Iterations = 0; res.Iterations < opts.MaxIter; res.Iterations++ {
		r := la.Norm2(f)
		res.Residual = r
		if r <= target {
			res.Converged = true
			res.TotalIters = res.Iterations
			return res, nil
		}
		if err := ctxErr(ctx); err != nil {
			return res, err
		}
		if err := sys.Jacobian(u, jac); err != nil {
			return res, err
		}
		lu, err := la.FactorLU(jac)
		if err != nil {
			return res, &JacobianSingularError{Iteration: res.Iterations, Err: err}
		}
		if err := lu.Solve(delta, f); err != nil {
			return res, &JacobianSingularError{Iteration: res.Iterations, Err: err}
		}
		res.LinearSolves++
		// Backtrack until sufficient decrease: ‖F(u−λδ)‖ ≤ (1−αλ)‖F(u)‖.
		const alpha = 1e-4
		lambda := 1.0
		for {
			copy(utrial, u)
			la.Axpy(-lambda, delta, utrial)
			if err := sys.Eval(utrial, f); err != nil {
				return res, err
			}
			if finite(f) && la.Norm2(f) <= (1-alpha*lambda)*r {
				break
			}
			lambda /= 2
			if lambda < 1e-12 {
				return res, ErrDiverged
			}
		}
		copy(u, utrial)
	}
	res.TotalIters = res.Iterations
	return res, ErrNoConvergence
}
