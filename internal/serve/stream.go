package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"net/http"
	"strconv"

	"hybridpde/internal/cache"
	"hybridpde/internal/core"
)

// NDJSONContentType is the POST /v1/stream response media type: one JSON
// document per line, flushed as it is produced.
const NDJSONContentType = "application/x-ndjson"

// StreamFrame is one NDJSON line of a POST /v1/stream response: a single
// converged (or degraded-but-served) time step of the transient solve,
// written and flushed before the next step runs.
type StreamFrame struct {
	// Step is the 1-based step index; T = Step·dt labels the time axis.
	Step int     `json:"step"`
	T    float64 `json:"t"`
	// Residual is the step's certified final ‖F(u)‖₂; Converged whether the
	// digital polish met its tolerance.
	Residual  float64 `json:"residual"`
	Converged bool    `json:"converged"`
	// Iterations/LinearSolves/Refactorizations describe the step's Newton
	// work; chord-mode factorization reuse keeps Refactorizations far below
	// LinearSolves on smooth trajectories.
	Iterations       int `json:"newton_iterations"`
	LinearSolves     int `json:"linear_solves"`
	Refactorizations int `json:"refactorizations"`
	// Rung/Degraded echo the degradation ladder's account of the step.
	Rung     string `json:"rung,omitempty"`
	Degraded bool   `json:"degraded,omitempty"`
	// Checksum is FNV-64a over the little-endian float64 bits of the step's
	// solution — the determinism handle every frame carries. U is the full
	// solution vector, present only when the request set include_solution.
	Checksum string    `json:"checksum"`
	U        []float64 `json:"u,omitempty"`
}

// StreamSummary is the final NDJSON line of a stream: the whole-trajectory
// account, including the in-band error report — once frames have been
// flushed the HTTP status is committed, so failures surface here.
type StreamSummary struct {
	// Done is true when every requested step was solved and emitted.
	Done    bool   `json:"done"`
	Problem string `json:"problem"`
	Dim     int    `json:"dim,omitempty"`
	// Frames counts the frame lines actually emitted before this summary.
	Frames           int `json:"frames"`
	TotalIterations  int `json:"total_newton_iterations"`
	LinearSolves     int `json:"linear_solves"`
	Refactorizations int `json:"refactorizations"`
	// ModelSeconds/ModelEnergyJ are the summed modelled step costs
	// (machine-independent); QueueSeconds/SolveSeconds measured wall time.
	ModelSeconds float64 `json:"model_seconds,omitempty"`
	ModelEnergyJ float64 `json:"model_energy_j,omitempty"`
	QueueSeconds float64 `json:"queue_seconds"`
	SolveSeconds float64 `json:"solve_seconds"`
	Error        string  `json:"error,omitempty"`
}

// streamChecksum hashes the exact bit pattern of a solution vector
// (FNV-64a over the little-endian float64 bits), so streamed frames are
// checkable against offline solves and against each other.
func streamChecksum(u []float64) string {
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

// streamLine is one marshalled NDJSON line in flight from the solving
// goroutine to the handler's writer loop.
type streamLine struct {
	data    []byte
	summary bool
}

// streamBuffer bounds the frames buffered between the solving worker and a
// stream's network writer.
const streamBuffer = 8

// handleStream is POST /v1/stream, the NDJSON tail behind the same admission
// prelude as /v1/solve: acquire a worker → run the transient time loop on a
// solver goroutine while this handler writes and flushes each frame line as
// it arrives.
//
// Backpressure is bounded-then-blocking: a slow client first consumes the
// streamBuffer-deep channel, then the solver blocks on it until the request
// deadline — the trajectory is never buffered whole. A write error (client
// gone) cancels the solve between frames and drains the channel so the
// solver goroutine always terminates; the worker is released only after the
// channel closes, which is the proof the goroutine is done with it.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	ctx, a, ok := s.admitRequest(w, r, EndpointStream)
	if !ok {
		return
	}
	defer a.release()
	if !a.acquire(ctx, w) {
		return
	}
	req := &a.req

	// The stream is committed: the 200 is written before the first step
	// solves, and every later outcome — including failure — is in-band on
	// the summary line.
	s.m.requests.With(req.Problem, strconv.Itoa(http.StatusOK)).Inc()
	s.m.streamsInflight.Inc()
	defer s.m.streamsInflight.Dec()
	w.Header().Set("Content-Type", NDJSONContentType)
	w.WriteHeader(http.StatusOK)
	flusher, canFlush := w.(http.Flusher)

	lines := make(chan streamLine, streamBuffer)
	go s.solveStream(ctx, a.wk, req, since(a.enqueued), lines)

	var first, failed bool
	for ln := range lines {
		if failed {
			continue // drain: the solver goroutine must never block forever
		}
		if _, werr := w.Write(ln.data); werr != nil {
			// The client hung up mid-trajectory: abort the solve between
			// frames and keep draining until the channel closes.
			failed = true
			a.cancel()
			continue
		}
		if canFlush {
			flusher.Flush()
		}
		if !ln.summary {
			s.m.framesStreamed.Inc()
			if !first {
				first = true
				s.m.firstFrameTime.Observe(since(a.enqueued))
			}
		}
	}
}

// solveStream runs the worker's transient time loop, marshalling each frame
// into an NDJSON line for the handler's writer loop. It always terminates
// the stream with a summary line (unless the context is already dead) and
// always closes the channel — the handler's signal that the worker is free.
func (s *Server) solveStream(ctx context.Context, wk *worker, req *Request, queueSeconds float64, out chan<- streamLine) {
	defer close(out)
	started := now()
	stepStart := started
	var frame StreamFrame
	emit := func(f *core.Frame) error {
		s.m.frameSolveTime.Observe(since(stepStart))
		frame = StreamFrame{
			Step:             f.Step,
			T:                f.T,
			Residual:         f.Residual,
			Converged:        f.Converged,
			Iterations:       f.Iterations,
			LinearSolves:     f.LinearSolves,
			Refactorizations: f.Refactorizations,
			Rung:             string(f.Rung),
			Degraded:         f.Degraded,
			Checksum:         streamChecksum(f.U),
		}
		if req.IncludeSolution {
			// f.U aliases solver storage but is marshalled before this
			// callback returns, so the alias never escapes the frame.
			frame.U = f.U
		}
		b, err := json.Marshal(&frame)
		if err != nil {
			return err
		}
		b = append(b, '\n')
		select {
		case out <- streamLine{data: b}:
		case <-ctx.Done():
			return ctx.Err()
		}
		stepStart = now()
		return nil
	}

	rep, dim, err := wk.stream(ctx, req, emit)
	sum := StreamSummary{
		Done:             err == nil,
		Problem:          req.Problem,
		Dim:              dim,
		Frames:           rep.Steps,
		TotalIterations:  rep.TotalIterations,
		LinearSolves:     rep.LinearSolves,
		Refactorizations: rep.Refactorizations,
		ModelSeconds:     rep.TotalSeconds,
		ModelEnergyJ:     rep.TotalEnergyJ,
		QueueSeconds:     queueSeconds,
		SolveSeconds:     since(started),
	}
	if err != nil {
		sum.Error = err.Error()
		s.m.streamsAborted.Inc()
	}
	s.m.jacRefactors.Add(uint64(rep.Refactorizations))
	if reuses := rep.LinearSolves - rep.Refactorizations; reuses > 0 {
		s.m.jacReuses.Add(uint64(reuses))
	}
	b, merr := json.Marshal(&sum)
	if merr != nil {
		return
	}
	b = append(b, '\n')
	select {
	case out <- streamLine{data: b, summary: true}:
	case <-ctx.Done():
	}
}

// stream runs one admitted /v1/stream request: req.Steps Crank–Nicolson
// steps of the request's transient problem through the worker's ladder,
// workspace and analog seeding machinery, with chord-mode factorization
// reuse across iterations and steps. The cache rungs stay unbound —
// intermediate time levels are not content-addressable identities — and the
// per-request refill keeps trajectories bit-identical across workers,
// repeats and pool resizes exactly like buffered solves.
func (wk *worker) stream(ctx context.Context, req *Request, emit func(*core.Frame) error) (core.TransientReport, int, error) {
	e, opts, err := wk.prepare(req)
	if err != nil {
		return core.TransientReport{}, 0, err
	}
	ts, ok := e.sys.(core.TransientSystem)
	if !ok {
		return core.TransientReport{}, 0, fmt.Errorf("serve: problem %q cannot march in time", req.Problem)
	}
	wk.bind.rebind(false, cache.Key{}, cache.Key{}, 0, 0)
	opts.Newton.Chord = true
	tl := core.TimeLoopOptions{Steps: req.Steps, Dt: req.Dt, Ladder: wk.ladder, Lopts: wk.lopts}
	rep, err := core.TimeLoop(ctx, ts, opts, tl, emit)
	return rep, e.sys.Dim(), err
}
