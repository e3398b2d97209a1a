package core

import (
	"context"
	"errors"
	"testing"
)

// loopFrame is a deep copy of one emitted Frame (Frame.U aliases solver
// storage, so tests must copy before the next step overwrites it).
type loopFrame struct {
	step                        int
	t                           float64
	iters, linSolves, refactors int
	residual                    float64
	u                           []float64
}

func copyFrame(f *Frame) loopFrame {
	return loopFrame{
		step:      f.Step,
		t:         f.T,
		iters:     f.Iterations,
		linSolves: f.LinearSolves,
		refactors: f.Refactorizations,
		residual:  f.Residual,
		u:         append([]float64(nil), f.U...),
	}
}

// TestTimeLoopMatchesManualSolveLoop is the streaming equivalence contract:
// a TimeLoop trajectory must be bit-identical to the buffered serial loop a
// caller would write by hand — Solve, record, Advance, repeat.
func TestTimeLoopMatchesManualSolveLoop(t *testing.T) {
	const steps = 4
	b1 := mustRandomBurgers(t, 4, 0.8, 91)
	b2 := mustRandomBurgers(t, 4, 0.8, 91)
	opts := Options{SkipAnalog: true}

	var frames []loopFrame
	tr, err := TimeLoop(nil, b1, opts, TimeLoopOptions{Steps: steps, Dt: 0.25}, func(f *Frame) error {
		frames = append(frames, copyFrame(f))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Steps != steps || len(frames) != steps {
		t.Fatalf("expected %d frames, got report %d / emitted %d", steps, tr.Steps, len(frames))
	}

	var sumIters int
	for s := 0; s < steps; s++ {
		rep, err := Solve(nil, b2, opts)
		if err != nil {
			t.Fatalf("manual step %d: %v", s+1, err)
		}
		f := frames[s]
		if f.step != s+1 || f.t != float64(s+1)*0.25 {
			t.Fatalf("frame %d mislabelled: step=%d t=%v", s, f.step, f.t)
		}
		if f.residual != rep.FinalResidual {
			t.Fatalf("step %d: residual %x, want %x", s+1, f.residual, rep.FinalResidual)
		}
		if f.iters != rep.Digital.TotalIters || f.linSolves != rep.Digital.LinearSolves {
			t.Fatalf("step %d: work accounting diverged: frame %+v vs report %+v", s+1, f, rep.Digital)
		}
		for i := range f.u {
			if f.u[i] != rep.U[i] {
				t.Fatalf("step %d: U[%d] = %x, want %x", s+1, i, f.u[i], rep.U[i])
			}
		}
		sumIters += rep.Digital.TotalIters
		if err := b2.Advance(rep.U); err != nil {
			t.Fatalf("manual advance %d: %v", s+1, err)
		}
	}
	if tr.TotalIterations != sumIters {
		t.Fatalf("report iterations %d, manual sum %d", tr.TotalIterations, sumIters)
	}
}

// TestTimeLoopChordWarmWorkspaceBitIdentity pins the perf tentpole's two
// claims together: a chord trajectory reuses factorizations (the win), and
// re-running it on an already-warm workspace reproduces the same bits (the
// contract that lets server workers, each keeping its Workspace, stream
// without cold resets).
func TestTimeLoopChordWarmWorkspaceBitIdentity(t *testing.T) {
	const steps = 5
	opts := Options{SkipAnalog: true, Workspace: NewWorkspace()}
	opts.Newton.Chord = true

	run := func() ([]loopFrame, TransientReport) {
		b := mustRandomBurgers(t, 4, 0.8, 97)
		var frames []loopFrame
		tr, err := TimeLoop(nil, b, opts, TimeLoopOptions{Steps: steps}, func(f *Frame) error {
			frames = append(frames, copyFrame(f))
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return frames, tr
	}

	cold, coldTr := run()
	if coldTr.Refactorizations == 0 || coldTr.Refactorizations >= coldTr.LinearSolves {
		t.Fatalf("chord trajectory did not reuse factorizations: %d refactorizations, %d linear solves",
			coldTr.Refactorizations, coldTr.LinearSolves)
	}

	warm, warmTr := run()
	if warmTr != coldTr {
		t.Fatalf("warm-workspace report diverged: %+v vs %+v", warmTr, coldTr)
	}
	for s := range cold {
		if warm[s].refactors != cold[s].refactors || warm[s].iters != cold[s].iters {
			t.Fatalf("step %d: warm gate decisions diverged: %+v vs %+v", s+1, warm[s], cold[s])
		}
		for i := range cold[s].u {
			if warm[s].u[i] != cold[s].u[i] {
				t.Fatalf("step %d: U[%d] = %x, want %x", s+1, i, warm[s].u[i], cold[s].u[i])
			}
		}
	}
}

// TestTimeLoopCtxCancelBetweenFrames: a cancellation lands between steps —
// frames already emitted stay counted, the loop aborts with the context's
// error before solving the next step.
func TestTimeLoopCtxCancelBetweenFrames(t *testing.T) {
	b := mustRandomBurgers(t, 3, 0.8, 101)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	tr, err := TimeLoop(ctx, b, Options{SkipAnalog: true}, TimeLoopOptions{Steps: 8}, func(f *Frame) error {
		if f.Step == 2 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("expected a wrapped context.Canceled, got %v", err)
	}
	if tr.Steps != 2 {
		t.Fatalf("expected 2 delivered frames before the abort, got %d", tr.Steps)
	}
}

// TestTimeLoopEmitErrorAborts: an emit failure (the streaming client went
// away) aborts the loop and surfaces wrapped, with the delivered-frame
// count excluding the failed emit.
func TestTimeLoopEmitErrorAborts(t *testing.T) {
	b := mustRandomBurgers(t, 3, 0.8, 103)
	sentinel := errors.New("client gone")
	tr, err := TimeLoop(nil, b, Options{SkipAnalog: true}, TimeLoopOptions{Steps: 8}, func(f *Frame) error {
		if f.Step == 2 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("expected the emit error wrapped, got %v", err)
	}
	if tr.Steps != 1 {
		t.Fatalf("expected 1 delivered frame, got %d", tr.Steps)
	}
}

// TestTimeLoopValidation covers the argument contract: at least one step,
// no caller-supplied initial guess (steps start from the previous time
// level), and the default Dt of 1 labelling the time axis.
func TestTimeLoopValidation(t *testing.T) {
	b := mustRandomBurgers(t, 3, 0.8, 107)
	noEmit := func(*Frame) error { return nil }

	if _, err := TimeLoop(nil, b, Options{SkipAnalog: true}, TimeLoopOptions{}, noEmit); err == nil {
		t.Fatal("Steps=0 must be rejected")
	}
	bad := Options{SkipAnalog: true, InitialGuess: make([]float64, b.Dim())}
	if _, err := TimeLoop(nil, b, bad, TimeLoopOptions{Steps: 1}, noEmit); err == nil {
		t.Fatal("InitialGuess must be rejected: steps start from the previous time level")
	}

	var gotT float64
	if _, err := TimeLoop(nil, b, Options{SkipAnalog: true}, TimeLoopOptions{Steps: 1}, func(f *Frame) error {
		gotT = f.T
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if gotT != 1 {
		t.Fatalf("default Dt should label the first frame t=1, got %v", gotT)
	}
}
