package core

import (
	"math"
	"testing"

	"hybridpde/internal/analog"
)

// fakeCache is a hand-wound SolveCache for driving the cache and
// warm-start rungs deterministically.
type fakeCache struct {
	hit     CachedSolve
	hitU    []float64
	hasHit  bool
	warmU   []float64
	hasWarm bool
}

func (f *fakeCache) Lookup(dst []float64) (CachedSolve, bool) {
	if !f.hasHit || len(f.hitU) != len(dst) {
		return CachedSolve{}, false
	}
	copy(dst, f.hitU)
	return f.hit, true
}

func (f *fakeCache) Nearest(dst []float64) bool {
	if !f.hasWarm || len(f.warmU) != len(dst) {
		return false
	}
	copy(dst, f.warmU)
	return true
}

// TestCachedRungsColdIdentity is the standing contract: with an empty (or
// unbound) cache the six-rung ladder reports bit-identically to the
// original four-rung ladder — a miss leaves no trace.
func TestCachedRungsColdIdentity(t *testing.T) {
	solve := func(l *Ladder) Report {
		b := mustRandomBurgers(t, 2, 0.5, 61)
		rep, err := l.Solve(nil, b, Options{Seeder: AnalogSeeder(analog.NewPrototype(10))}, LadderOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	base := solve(NewLadderRungs(DefaultRungs()...))
	cold := solve(NewLadderRungs(CachedRungs(&fakeCache{})...))
	nilBound := solve(NewLadderRungs(CachedRungs(nil)...))
	for name, rep := range map[string]Report{"empty cache": cold, "nil cache": nilBound} {
		if rep.FinalResidual != base.FinalResidual || rep.SeedResidual != base.SeedResidual ||
			rep.Digital.TotalIters != base.Digital.TotalIters {
			t.Fatalf("%s: cold solve diverged from cache-free ladder: %+v vs %+v", name, rep, base)
		}
		for i := range rep.U {
			if rep.U[i] != base.U[i] {
				t.Fatalf("%s: U[%d] diverged", name, i)
			}
		}
		fb, bfb := rep.Fallback, base.Fallback
		if fb.Final != bfb.Final || fb.Degraded != bfb.Degraded || len(fb.Attempts) != len(bfb.Attempts) {
			t.Fatalf("%s: fallback account diverged: %+v vs %+v", name, fb, bfb)
		}
	}
}

func TestCacheRungExactHit(t *testing.T) {
	b := mustRandomBurgers(t, 2, 0.5, 61)
	base, err := NewLadderRungs(DefaultRungs()...).Solve(nil, b, Options{Seeder: AnalogSeeder(analog.NewPrototype(10))}, LadderOptions{})
	if err != nil {
		t.Fatal(err)
	}
	fc := &fakeCache{
		hasHit: true,
		hitU:   append([]float64(nil), base.U...),
		hit: CachedSolve{
			Converged: true, Iterations: base.Digital.TotalIters,
			Residual: base.FinalResidual, SeedResidual: base.SeedResidual,
			AnalogUsed: base.AnalogUsed, Seconds: base.TotalSeconds, EnergyJ: base.TotalEnergyJ,
		},
	}
	l := NewLadderRungs(CachedRungs(fc)...)
	b2 := mustRandomBurgers(t, 2, 0.5, 61)
	rep, err := l.Solve(nil, b2, Options{Seeder: AnalogSeeder(analog.NewPrototype(10))}, LadderOptions{})
	if err != nil {
		t.Fatal(err)
	}
	fb := rep.Fallback
	if fb.Final != RungCache || fb.Degraded {
		t.Fatalf("exact hit must be served by the cache rung undegraded: %+v", fb)
	}
	if len(fb.Attempts) != 1 || fb.Attempts[0].Rung != RungCache || !fb.Attempts[0].Converged {
		t.Fatalf("cache attempt row wrong: %+v", fb.Attempts)
	}
	if !rep.Digital.Converged || rep.Digital.TotalIters != base.Digital.TotalIters {
		t.Fatalf("replayed digital account wrong: %+v", rep.Digital)
	}
	if rep.FinalResidual != base.FinalResidual || rep.TotalSeconds != base.TotalSeconds {
		t.Fatalf("replayed scalars diverged: %+v", rep)
	}
	for i := range rep.U {
		if rep.U[i] != base.U[i] {
			t.Fatalf("replayed U[%d] diverged", i)
		}
	}
}

// TestWarmStartRungContinuation pins the continuation payoff: starting
// Newton from a nearby cached solution must converge in strictly fewer
// iterations than the cold digital solve of the same problem.
func TestWarmStartRungContinuation(t *testing.T) {
	b := mustRandomBurgers(t, 2, 0.5, 61)
	cold, err := NewLadderRungs(DefaultRungs()...).Solve(nil, b, Options{SkipAnalog: true}, LadderOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if cold.Digital.TotalIters < 2 {
		t.Fatalf("cold solve too easy (%d iters) to show a warm-start win", cold.Digital.TotalIters)
	}
	fc := &fakeCache{hasWarm: true, warmU: append([]float64(nil), cold.U...)}
	l := NewLadderRungs(CachedRungs(fc)...)
	b2 := mustRandomBurgers(t, 2, 0.5, 61)
	rep, err := l.Solve(nil, b2, Options{SkipAnalog: true}, LadderOptions{})
	if err != nil {
		t.Fatal(err)
	}
	fb := rep.Fallback
	if fb.Final != RungWarmStart || fb.Degraded {
		t.Fatalf("warm start must serve undegraded: %+v", fb)
	}
	if len(fb.Attempts) != 1 || fb.Attempts[0].Rung != RungWarmStart || fb.Attempts[0].SeedRejected {
		t.Fatalf("warm-start attempt row wrong: %+v", fb.Attempts)
	}
	if rep.Digital.TotalIters >= cold.Digital.TotalIters {
		t.Fatalf("warm start took %d iters, cold took %d — no continuation win",
			rep.Digital.TotalIters, cold.Digital.TotalIters)
	}
	if rep.SeedResidual <= 0 || rep.StartResidual <= 0 {
		t.Fatalf("warm-start solve must record gate residuals: %+v", rep)
	}
	if rep.FinalResidual > 1e-10 {
		t.Fatalf("residual %g too large", rep.FinalResidual)
	}
}

// TestWarmStartRungStaleGate pins the degradation contract: a stale
// continuation candidate fails the residual gate, records a rejected
// attempt, and the ladder falls through — producing the exact solution the
// cache-free ladder would.
func TestWarmStartRungStaleGate(t *testing.T) {
	b := mustRandomBurgers(t, 2, 0.5, 61)
	base, err := NewLadderRungs(DefaultRungs()...).Solve(nil, b, Options{SkipAnalog: true}, LadderOptions{})
	if err != nil {
		t.Fatal(err)
	}
	stale := make([]float64, len(base.U))
	for i := range stale {
		stale[i] = 1e6 // far off the solution manifold: the gate must trip
	}
	fc := &fakeCache{hasWarm: true, warmU: stale}
	l := NewLadderRungs(CachedRungs(fc)...)
	b2 := mustRandomBurgers(t, 2, 0.5, 61)
	rep, err := l.Solve(nil, b2, Options{SkipAnalog: true}, LadderOptions{})
	if err != nil {
		t.Fatal(err)
	}
	fb := rep.Fallback
	if fb.Final != RungDigital {
		t.Fatalf("stale warm start must fall through to digital: %+v", fb)
	}
	if fb.SeedRejections != 1 {
		t.Fatalf("SeedRejections = %d, want 1", fb.SeedRejections)
	}
	if len(fb.Attempts) != 2 || fb.Attempts[0].Rung != RungWarmStart || !fb.Attempts[0].SeedRejected {
		t.Fatalf("want rejected warm-start + digital rows, got %+v", fb.Attempts)
	}
	if !fb.Degraded {
		t.Fatal("serving below the attempted warm-start rung is a degradation")
	}
	if rep.Digital.TotalIters != base.Digital.TotalIters {
		t.Fatalf("fall-through digital solve diverged: %d vs %d iters",
			rep.Digital.TotalIters, base.Digital.TotalIters)
	}
	for i := range rep.U {
		if rep.U[i] != base.U[i] {
			t.Fatalf("U[%d] diverged after stale warm start", i)
		}
	}
}

// TestWarmStartGateRejectsNonFinite pins the gate's totality: a candidate
// whose residual is NaN must be rejected, never handed to Newton.
func TestWarmStartGateRejectsNonFinite(t *testing.T) {
	b := mustRandomBurgers(t, 2, 0.5, 61)
	bad := make([]float64, b.Dim())
	for i := range bad {
		bad[i] = math.NaN()
	}
	fc := &fakeCache{hasWarm: true, warmU: bad}
	l := NewLadderRungs(CachedRungs(fc)...)
	rep, err := l.Solve(nil, b, Options{SkipAnalog: true}, LadderOptions{})
	if err != nil {
		t.Fatal(err)
	}
	fb := rep.Fallback
	if fb.Final != RungDigital || fb.SeedRejections != 1 {
		t.Fatalf("NaN candidate must be gated out: %+v", fb)
	}
}
