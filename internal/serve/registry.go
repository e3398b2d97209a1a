package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"time"

	"hybridpde/internal/core"
)

// Problem kinds the service accepts. Each grid kind maps a (n, re, order,
// seed, bound) tuple to a deterministic problem instance, so identical
// requests produce bit-identical solves; the netlist kind validates an
// analog program text against a calibrated fabric.
const (
	// KindBurgers2D is one Crank–Nicolson step of the paper's flagship
	// 2-D viscous Burgers problem on an n×n interior grid (2n² unknowns).
	KindBurgers2D = "burgers2d"
	// KindBurgersSteady is the steady method-of-lines root system of the
	// 2-D Burgers problem, re-rooted per request so a solution exists.
	KindBurgersSteady = "burgers-steady"
	// KindBurgers1D is one Crank–Nicolson step of 1-D viscous Burgers on n
	// interior nodes (tridiagonal Jacobian).
	KindBurgers1D = "burgers1d"
	// KindNetlist parses and validates an analog program (inst/wire/set/
	// commit/start/stop directives) against a calibrated fabric via
	// analog.ParseNetlist.
	KindNetlist = "netlist"
)

// Request is the POST /v1/solve body.
type Request struct {
	// Problem selects the registry kind (see Kind* constants).
	Problem string `json:"problem"`
	// N is the grid size: n×n interior nodes for 2-D kinds, n interior
	// nodes for 1-D.
	N int `json:"n,omitempty"`
	// Re is the Reynolds number. Default 1.
	Re float64 `json:"re,omitempty"`
	// Order is the finite-difference order of the 2-D kinds: 2 or 4.
	Order int `json:"order,omitempty"`
	// Seed determines the random fields deterministically. Default 1.
	Seed int64 `json:"seed,omitempty"`
	// Bound is the ± range fields and forcing are drawn from. Default 0.5.
	Bound float64 `json:"bound,omitempty"`
	// Backend prices the digital polish: "cpu" (default), "gpu", "analog-la".
	Backend string `json:"backend,omitempty"`
	// Analog enables the analog seeding stage (the paper's pipeline).
	Analog bool `json:"analog,omitempty"`
	// AnalogVars caps the accelerator capacity in scalar variables. When
	// smaller than the problem dimension the seed is produced by red-black
	// Gauss-Seidel decomposition (§6.3). Default: the problem dimension.
	AnalogVars int `json:"analog_vars,omitempty"`
	// DeadlineMillis bounds the solve (queue wait included) in
	// milliseconds. Clamped to the server's MaxTimeout.
	DeadlineMillis int64 `json:"deadline_ms,omitempty"`
	// Netlist is the program text of the netlist kind.
	Netlist string `json:"netlist,omitempty"`

	// Stream fields (POST /v1/stream only; /v1/solve rejects them).
	// Steps is the number of Crank–Nicolson steps to march, one NDJSON
	// frame each. Default 16, capped by the server's -max-steps.
	Steps int `json:"steps,omitempty"`
	// Dt labels the trajectory's time axis: frames carry t = step·dt. The
	// isotropic discretization fixes the numerical step to the grid
	// spacing, so dt is reporting-only. Default 1.
	Dt float64 `json:"dt,omitempty"`
	// IncludeSolution asks for the full solution vector on every frame
	// (frames carry only a checksum by default).
	IncludeSolution bool `json:"include_solution,omitempty"`
}

// Response is the POST /v1/solve reply. Solve fields are set for grid
// kinds, program fields for the netlist kind.
type Response struct {
	Problem string `json:"problem"`
	Dim     int    `json:"dim,omitempty"`

	// Solve outcome.
	Converged       bool    `json:"converged,omitempty"`
	Iterations      int     `json:"newton_iterations,omitempty"`
	Residual        float64 `json:"residual,omitempty"`
	InitialResidual float64 `json:"initial_residual,omitempty"`
	SeedResidual    float64 `json:"seed_residual,omitempty"`
	AnalogUsed      bool    `json:"analog_used,omitempty"`
	SeedAccepted    bool    `json:"seed_accepted,omitempty"`
	Decomposed      bool    `json:"decomposed,omitempty"`
	Subproblems     int     `json:"subproblems,omitempty"`
	GSSweeps        int     `json:"gs_sweeps,omitempty"`
	// Modeled cost (internal/perfmodel), machine-independent.
	ModelSeconds float64 `json:"model_seconds,omitempty"`
	ModelEnergyJ float64 `json:"model_energy_j,omitempty"`

	// Degradation-ladder outcome. Degraded means the solve converged on a
	// rung below the planned pipeline — a 200 with this flag set is the
	// structured alternative to failing the request.
	Degraded     bool   `json:"degraded,omitempty"`
	Rung         string `json:"rung,omitempty"`
	SeedRejected bool   `json:"seed_rejected,omitempty"`
	RungAttempts int    `json:"rung_attempts,omitempty"`
	// fallback is the metrics plane's view of the ladder account. It
	// aliases worker-owned storage, so it must be consumed (account) before
	// the worker is released; it is deliberately not serialised.
	fallback *core.FallbackReport
	// Cache outcome flags for the metrics plane. Deliberately not
	// serialised: an exact-repeat request must produce a byte-identical
	// body whether it was solved or replayed.
	cacheOn    bool // the solve consulted the cache
	cacheHit   bool // served by an exact content-address replay
	cacheWarm  bool // served by the warm-start continuation rung
	cacheStale bool // a warm-start candidate was rejected by the gate

	// Netlist program outcome.
	Components  int  `json:"components,omitempty"`
	Connections int  `json:"connections,omitempty"`
	Committed   bool `json:"committed,omitempty"`
	Running     bool `json:"running,omitempty"`

	// Measured wall time (the metrics plane's view of this request).
	QueueSeconds float64 `json:"queue_seconds"`
	SolveSeconds float64 `json:"solve_seconds"`

	Error string `json:"error,omitempty"`
}

// KindInfo describes one registry entry for GET /v1/problems.
type KindInfo struct {
	Name        string `json:"name"`
	Description string `json:"description"`
	MaxN        int    `json:"max_n,omitempty"`
	DefaultN    int    `json:"default_n,omitempty"`
	// Streamable marks transient kinds POST /v1/stream accepts; MaxSteps
	// is the server-side cap on a stream's step count (-max-steps).
	Streamable bool `json:"streamable,omitempty"`
	MaxSteps   int  `json:"max_steps,omitempty"`
}

// maxNetlistBytes bounds the netlist program text; the fabric has a few
// hundred components, so real programs are far smaller.
const maxNetlistBytes = 1 << 16

// maxBurgers1DNodes bounds the 1-D grid; a tridiagonal solve at this size
// is still well under a millisecond.
const maxBurgers1DNodes = 4096

// Kinds lists the registry for a server configured with maxGridN and a
// stream step cap of maxSteps.
func Kinds(maxGridN, maxSteps int) []KindInfo {
	if maxSteps <= 0 {
		maxSteps = defaultMaxSteps
	}
	return []KindInfo{
		{Name: KindBurgers2D, Description: "one Crank–Nicolson step of 2-D viscous Burgers (2n² unknowns); streamable as a trajectory via POST /v1/stream", MaxN: maxGridN, DefaultN: defaultGridN, Streamable: true, MaxSteps: maxSteps},
		{Name: KindBurgersSteady, Description: "steady method-of-lines 2-D Burgers root system, rooted per request", MaxN: maxGridN, DefaultN: defaultGridN},
		{Name: KindBurgers1D, Description: "one Crank–Nicolson step of 1-D viscous Burgers (tridiagonal); streamable as a trajectory via POST /v1/stream", MaxN: maxBurgers1DNodes, DefaultN: default1DN, Streamable: true, MaxSteps: maxSteps},
		{Name: KindNetlist, Description: "parse + validate an analog program text against a calibrated fabric"},
	}
}

const (
	defaultGridN = 6
	default1DN   = 64
	defaultBound = 0.5
	// defaultSteps is a stream's step count when the request leaves it
	// unset; defaultMaxSteps the server-side cap (-max-steps).
	defaultSteps    = 16
	defaultMaxSteps = 256
	// maxDt bounds the reporting-only frame time spacing.
	maxDt = 1e6
	// defaultMaxGridN is the 2-D grid cap when the configuration leaves it
	// unset (2·12² = 288 unknowns per solve).
	defaultMaxGridN = 12
)

// Endpoint names one of the two request planes by its URL path: it selects
// a body's validation rules and, on the gateway, the upstream path.
type Endpoint string

const (
	// EndpointSolve is the buffered plane: one JSON reply per request.
	EndpointSolve Endpoint = "/v1/solve"
	// EndpointStream is the NDJSON plane: one frame line per time step.
	EndpointStream Endpoint = "/v1/stream"
)

// maxBodyBytes bounds a request body on both tiers.
const maxBodyBytes = 1 << 20

// DecodeRequest is the one place a request body becomes a Request, on the
// backends and the gateway alike: read under the size bound, decoded
// strictly (unknown fields are errors) and normalized under the endpoint's
// rules — so a request the gateway accepts is one every identically
// configured backend accepts, and routing keys are computed over the
// identity the backend caches under. body is the raw bytes (what a gateway
// forwards). Every error is client-facing (a 400); req keeps whatever
// decoded, so a rejection is still counted under its problem kind.
func DecodeRequest(w http.ResponseWriter, r *http.Request, ep Endpoint, maxGridN, maxSteps int) (req Request, body []byte, err error) {
	body, err = io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		return req, nil, fmt.Errorf("reading request body: %w", err)
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return req, nil, fmt.Errorf("invalid request body: %w", err)
	}
	if ep == EndpointStream {
		err = NormalizeStream(&req, maxGridN, maxSteps)
	} else {
		err = Normalize(&req, maxGridN)
	}
	return req, body, err
}

// Timeout resolves the request's effective deadline on either tier: def
// when the body carries no deadline_ms, otherwise the client's value
// clamped to max.
func (req *Request) Timeout(def, max time.Duration) time.Duration {
	if req.DeadlineMillis <= 0 {
		return def
	}
	if d := time.Duration(req.DeadlineMillis) * time.Millisecond; d < max {
		return d
	}
	return max
}

// Normalize fills request defaults and validates a POST /v1/solve body
// against a grid cap of maxGridN (default 12). Stream-only fields are
// rejected up front — a buffered solve endpoint silently accepting steps
// would pin a worker for the whole trajectory with no frames to show.
func Normalize(req *Request, maxGridN int) error {
	if req.Steps != 0 {
		return fmt.Errorf("serve: steps is a streaming field; POST /v1/stream serves transient trajectories")
	}
	if req.Dt != 0 { //pdevet:allow floateq zero is the JSON-absent sentinel (assigned by encoding/json, never computed)
		return fmt.Errorf("serve: dt is a streaming field; POST /v1/stream serves transient trajectories")
	}
	if req.IncludeSolution {
		return fmt.Errorf("serve: include_solution is a streaming field; POST /v1/stream serves transient trajectories")
	}
	return normalizeBase(req, maxGridN)
}

// NormalizeStream is Normalize for POST /v1/stream bodies: only the
// transient grid kinds march in time, the step count is capped at maxSteps
// (default 256, the server's -max-steps) so a hostile body cannot pin a
// worker for minutes, and dt is a bounded positive label.
func NormalizeStream(req *Request, maxGridN, maxSteps int) error {
	switch req.Problem {
	case KindBurgers2D, KindBurgers1D:
	case KindBurgersSteady, KindNetlist:
		return fmt.Errorf("serve: problem %q has no time loop; streaming applies to the transient grid kinds (%s, %s)", req.Problem, KindBurgers2D, KindBurgers1D)
	}
	if req.Steps == 0 {
		req.Steps = defaultSteps
	}
	if maxSteps <= 0 {
		maxSteps = defaultMaxSteps
	}
	if req.Steps < 1 || req.Steps > maxSteps {
		return fmt.Errorf("serve: steps=%d outside [1, %d] (the server's -max-steps cap)", req.Steps, maxSteps)
	}
	if req.Dt == 0 { //pdevet:allow floateq zero is the JSON-absent sentinel (assigned by encoding/json, never computed)
		req.Dt = 1
	}
	if !(req.Dt > 0) || req.Dt > maxDt {
		return fmt.Errorf("serve: dt=%g outside (0, %g]", req.Dt, maxDt)
	}
	return normalizeBase(req, maxGridN)
}

// normalizeBase fills the defaults and validates the ranges both endpoints
// share. It returns a client-facing error for invalid requests.
func normalizeBase(req *Request, maxGridN int) error {
	if maxGridN <= 0 {
		maxGridN = defaultMaxGridN
	}
	switch req.Problem {
	case KindBurgers2D, KindBurgersSteady:
		if req.N == 0 {
			req.N = defaultGridN
		}
		if req.N < 1 || req.N > maxGridN {
			return fmt.Errorf("serve: n=%d outside [1, %d] for %s", req.N, maxGridN, req.Problem)
		}
		if req.Order == 0 {
			req.Order = 2
		}
		if req.Order != 2 && req.Order != 4 {
			return fmt.Errorf("serve: order=%d must be 2 or 4", req.Order)
		}
	case KindBurgers1D:
		if req.N == 0 {
			req.N = default1DN
		}
		if req.N < 1 || req.N > maxBurgers1DNodes {
			return fmt.Errorf("serve: n=%d outside [1, %d] for %s", req.N, maxBurgers1DNodes, req.Problem)
		}
		if req.Order != 0 {
			return fmt.Errorf("serve: order is not configurable for %s", req.Problem)
		}
	case KindNetlist:
		if req.Netlist == "" {
			return fmt.Errorf("serve: netlist kind requires a netlist program text")
		}
		if len(req.Netlist) > maxNetlistBytes {
			return fmt.Errorf("serve: netlist text %d bytes exceeds %d", len(req.Netlist), maxNetlistBytes)
		}
		return nil
	case "":
		return fmt.Errorf("serve: request is missing the problem kind")
	default:
		return fmt.Errorf("serve: unknown problem kind %q", req.Problem)
	}

	// Grid kinds share the numeric knobs.
	if req.Re == 0 { //pdevet:allow floateq zero is the JSON-absent sentinel (assigned by encoding/json, never computed)
		req.Re = 1
	}
	if req.Re < 0 || math.IsNaN(req.Re) || math.IsInf(req.Re, 0) {
		return fmt.Errorf("serve: re=%g must be positive and finite", req.Re)
	}
	if req.Bound == 0 { //pdevet:allow floateq zero is the JSON-absent sentinel (assigned by encoding/json, never computed)
		req.Bound = defaultBound
	}
	if req.Bound < 0 || req.Bound > 3 || math.IsNaN(req.Bound) {
		return fmt.Errorf("serve: bound=%g outside (0, 3] (the paper's §5.4 dynamic range)", req.Bound)
	}
	if req.Seed == 0 {
		req.Seed = 1
	}
	switch req.Backend {
	case "", "cpu", "gpu", "analog-la":
	default:
		return fmt.Errorf("serve: unknown backend %q (want cpu, gpu or analog-la)", req.Backend)
	}
	dim := problemDim(req)
	if req.AnalogVars < 0 {
		return fmt.Errorf("serve: analog_vars=%d must be non-negative", req.AnalogVars)
	}
	if req.Analog {
		if req.AnalogVars == 0 {
			req.AnalogVars = dim
		}
		if req.AnalogVars > maxAnalogVars {
			return fmt.Errorf("serve: analog_vars=%d exceeds the practical accelerator limit %d (paper Table 4)", req.AnalogVars, maxAnalogVars)
		}
		if dim > maxAnalogVars && req.AnalogVars >= dim {
			return fmt.Errorf("serve: dimension %d exceeds the practical accelerator limit %d; set analog_vars below the dimension to decompose", dim, maxAnalogVars)
		}
	} else if req.AnalogVars != 0 {
		return fmt.Errorf("serve: analog_vars requires analog=true")
	}
	return nil
}

// problemDim returns the unknown count of a normalized grid request.
func problemDim(req *Request) int {
	switch req.Problem {
	case KindBurgers2D, KindBurgersSteady:
		return 2 * req.N * req.N
	case KindBurgers1D:
		return req.N
	}
	return 0
}
