// Package problem defines the abstract nonlinear-system contract the hybrid
// pipeline solves. The paper's contribution (§3.3, §6.2–6.3) is a pipeline —
// an analog approximate solve seeds a digital Newton polish, with red-black
// Gauss-Seidel decomposition beyond accelerator capacity — and none of those
// stages needs to know which PDE it is solving. Every discretised PDE in
// internal/pde implements SparseSystem; internal/core consumes only this
// interface, so new problem classes (and new analog backends, cf. the
// photonic PDE accelerators of related work) slot in without touching the
// pipeline.
package problem

import (
	"fmt"
	"sync"

	"hybridpde/internal/la"
)

// SparseSystem is a square nonlinear algebraic system F(u) = 0 with a sparse
// Jacobian — the shape every stencil discretisation produces (§4.4). It is a
// superset of nonlin.SparseSystem: the pipeline additionally needs a warm
// start and the field scale for the analog dynamic-range scaler.
//
// Concurrency contract: Eval must be safe for concurrent callers that pass
// distinct u and f slices (stencil evaluation reads the receiver but writes
// only the arguments). JacobianCSR may refresh and return shared internal
// storage, so concurrent users must serialise it — Sub does this with a
// caller-provided lock.
type SparseSystem interface {
	// Dim returns the number of unknowns (= number of equations).
	Dim() int
	// Eval writes F(u) into f. len(u) == len(f) == Dim().
	Eval(u, f []float64) error
	// JacobianCSR returns J(u). Implementations may reuse internal storage;
	// the caller must not retain the matrix across calls.
	JacobianCSR(u []float64) (*la.CSR, error)
	// InitialGuess returns the natural warm start (e.g. the previous time
	// level of an implicit step).
	InitialGuess() []float64
	// MaxField returns the largest |value| across the problem's fields,
	// forcing and boundary data — the dynamic range an analog solve must
	// accommodate.
	MaxField() float64
}

// DegreeReporter is the optional polynomial-degree hook of the analog
// dynamic-range scaler (§5.3); stencil systems are quadratic.
type DegreeReporter interface {
	// PolynomialDegree returns the total degree of the polynomial system,
	// or a negative value for non-polynomial (transcendental) systems.
	PolynomialDegree() int
}

// WarmStarter is the optional allocation-free companion of InitialGuess:
// implicit time stepping calls the pipeline once per step, and a fresh guess
// slice every step would be the loop's only steady-state allocation.
type WarmStarter interface {
	// InitialGuessInto writes the natural warm start into dst, which must
	// have length Dim().
	InitialGuessInto(dst []float64)
}

// Sub restricts a full system to a subset of its unknowns, freezing the rest
// at a snapshot of the global iterate — the subproblem shape nonlinear
// Gauss-Seidel generates (§6.3). It works over any SparseSystem and itself
// implements SparseSystem, so both the accelerator model and the digital
// solvers can consume it.
//
// A Sub owns its buffers; Reset re-snapshots the global state without
// allocating, which keeps repeated Gauss-Seidel sweeps off the allocator.
type Sub struct {
	full     SparseSystem
	unknowns []int     // global indices owned by this subproblem
	global   []float64 // frozen snapshot of the global iterate
	fFull    []float64
	// mu, when non-nil, serialises access to the full system's shared
	// Jacobian storage. Every Sub over the same full system must share the
	// same lock when tiles are solved concurrently.
	mu *sync.Mutex
}

// NewSub builds the restriction of full to the given unknowns, frozen at
// globalState. mu may be nil for serial use; concurrent Subs over one full
// system must share a lock (see Sub).
func NewSub(full SparseSystem, unknowns []int, globalState []float64, mu *sync.Mutex) *Sub {
	s := &Sub{
		full:     full,
		unknowns: unknowns,
		global:   make([]float64, full.Dim()),
		fFull:    make([]float64, full.Dim()),
		mu:       mu,
	}
	copy(s.global, globalState)
	return s
}

// Reset re-freezes the neighbour state at a new global iterate.
func (s *Sub) Reset(globalState []float64) {
	copy(s.global, globalState)
}

// Dim returns the number of owned unknowns.
func (s *Sub) Dim() int { return len(s.unknowns) }

// Unknowns returns the owned global indices (shared storage; do not mutate).
func (s *Sub) Unknowns() []int { return s.unknowns }

// PolynomialDegree propagates the full system's degree for the analog
// dynamic-range scaler; stencils default to quadratic.
func (s *Sub) PolynomialDegree() int {
	if d, ok := s.full.(DegreeReporter); ok {
		return d.PolynomialDegree()
	}
	return 2
}

// Restrict extracts this subproblem's unknowns from a global vector into
// dst, which must have length Dim().
func (s *Sub) Restrict(dst, global []float64) {
	for k, g := range s.unknowns {
		dst[k] = global[g]
	}
}

// Scatter writes owned values back into a global vector.
func (s *Sub) Scatter(sub, global []float64) {
	for k, g := range s.unknowns {
		global[g] = sub[k]
	}
}

// InitialGuess returns the owned slice of the frozen global snapshot.
func (s *Sub) InitialGuess() []float64 {
	out := make([]float64, len(s.unknowns))
	s.Restrict(out, s.global)
	return out
}

// MaxField propagates the full system's dynamic range: frozen neighbours
// appear in the restricted residual, so the sub-solve must accommodate the
// full field scale.
func (s *Sub) MaxField() float64 { return s.full.MaxField() }

// Eval computes the owned residual rows with frozen neighbours.
func (s *Sub) Eval(u, f []float64) error {
	if len(u) != len(s.unknowns) || len(f) != len(s.unknowns) {
		return fmt.Errorf("problem: Sub Eval dimension mismatch")
	}
	s.Scatter(u, s.global)
	if err := s.full.Eval(s.global, s.fFull); err != nil {
		return err
	}
	for k, g := range s.unknowns {
		f[k] = s.fFull[g]
	}
	return nil
}

// JacobianCSR extracts the owned block of the full Jacobian. The full
// system's Jacobian storage is shared, so this is the one operation the
// optional lock serialises; the extracted submatrix is fresh storage owned
// by the caller.
func (s *Sub) JacobianCSR(u []float64) (*la.CSR, error) {
	s.Scatter(u, s.global)
	if s.mu != nil {
		s.mu.Lock()
		defer s.mu.Unlock()
	}
	j, err := s.full.JacobianCSR(s.global)
	if err != nil {
		return nil, err
	}
	return j.ExtractSubmatrix(s.unknowns), nil
}

var _ SparseSystem = (*Sub)(nil)
