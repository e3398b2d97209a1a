package fault

import (
	"math"
	"testing"
)

func mustInjector(t *testing.T, src string, salt int64) *Injector {
	t.Helper()
	spec, err := ParseSpec(src)
	if err != nil {
		t.Fatal(err)
	}
	inj, err := New(spec, salt)
	if err != nil {
		t.Fatal(err)
	}
	return inj
}

func TestInjectorStuckAndRailed(t *testing.T) {
	inj := mustInjector(t, "stuck 0\nrailed 1\n", 0)
	inj.BeginRun()
	if d := inj.Drive(0.5, 0, 0.3, 2.0); d != 0 {
		t.Fatalf("stuck integrator drive %g, want 0", d)
	}
	// Railed: pulled toward the positive rail, harder the further away.
	if d := inj.Drive(0.5, 1, 0, 2.0); d <= 0 {
		t.Fatalf("railed integrator at 0 must be driven up, got %g", d)
	}
	if lo, hi := inj.Drive(0.5, 1, 0.9, 0), inj.Drive(0.5, 1, 0.1, 0); hi <= lo {
		t.Fatalf("rail pull must weaken near the rail: at 0.1 → %g, at 0.9 → %g", hi, lo)
	}
	// Unaffected variable passes through.
	if d := inj.Drive(0.5, 2, 0.3, 2.0); d != 2.0 {
		t.Fatalf("healthy variable drive %g, want 2", d)
	}
}

func TestInjectorDriftAndSaturation(t *testing.T) {
	inj := mustInjector(t, "dac-drift 0 0.1 0.05\nadc-drift * -0.5 0\nsaturation 0.5\nsaturation 0.8\n", 0)
	inj.BeginRun()
	if got, want := inj.DAC(0, 1.0), 1.0*1.1+0.05; math.Abs(got-want) > 1e-15 {
		t.Fatalf("DAC drift: got %g want %g", got, want)
	}
	if got := inj.DAC(1, 1.0); got != 1.0 {
		t.Fatalf("DAC channel 1 should be clean, got %g", got)
	}
	if got, want := inj.ADC(3, 0.8), 0.4; math.Abs(got-want) > 1e-15 {
		t.Fatalf("ADC wildcard drift: got %g want %g", got, want)
	}
	// Saturation factors compose multiplicatively.
	if got, want := inj.Saturation(1.2), 1.2*0.5*0.8; math.Abs(got-want) > 1e-15 {
		t.Fatalf("saturation: got %g want %g", got, want)
	}
}

func TestInjectorDeadTiles(t *testing.T) {
	inj := mustInjector(t, "dead-tile 0\ndead-tile 3\ndead-tile 99\n", 0)
	// Tile 99 is out of range for an 8-tile fabric and must not count.
	if got := inj.UsableTiles(8); got != 6 {
		t.Fatalf("UsableTiles(8) = %d, want 6", got)
	}
	if got := inj.UsableTiles(2); got != 1 {
		t.Fatalf("UsableTiles(2) = %d, want 1 (only tile 0 is in range)", got)
	}
}

func TestInjectorBurstWindow(t *testing.T) {
	inj := mustInjector(t, "burst 1 2 5 10\n", 0)
	inj.BeginRun()
	if d := inj.Drive(2, 0, 0, 0); d != 0 {
		t.Fatalf("burst active outside window: %g", d)
	}
	inside := inj.Drive(5.75, 0, 0, 0)
	if inside == 0 {
		t.Fatal("burst inactive inside window")
	}
	if math.Abs(inside) > 2 {
		t.Fatalf("burst amplitude %g exceeds spec amp 2", inside)
	}
}

// TestInjectorDeterminism is the package contract: a fixed (spec, salt) pair
// reproduces the whole fault sequence bit for bit, across every hook and
// across runs; a different salt diverges.
func TestInjectorDeterminism(t *testing.T) {
	const src = "seed 9\nburst 0.5 1\nburst 0.3 2 1 4\nadc-drift * 0.05 0.01\n"
	trace := func(salt int64) []float64 {
		inj := mustInjector(t, src, salt)
		var out []float64
		for run := 0; run < 64; run++ {
			inj.BeginRun()
			for i := 0; i < 4; i++ {
				out = append(out, inj.Drive(float64(run)/7, i, 0.2, 1.0), inj.ADC(i, 0.5))
			}
		}
		return out
	}
	a, b := trace(3), trace(3)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same salt diverged at sample %d: %g vs %g", i, a[i], b[i])
		}
	}
	c := trace(4)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different salts produced identical 64-run burst sequences")
	}
}

func TestInjectorBurstProbability(t *testing.T) {
	// prob 0 never activates; prob 1 always does.
	never := mustInjector(t, "burst 0 5\n", 0)
	always := mustInjector(t, "burst 1 5\n", 0)
	for run := 0; run < 32; run++ {
		never.BeginRun()
		always.BeginRun()
		if d := never.Drive(1, 0, 0, 0); d != 0 {
			t.Fatalf("prob-0 burst fired on run %d", run)
		}
		if d := always.Drive(1, 0, 0, 0); d == 0 {
			t.Fatalf("prob-1 burst idle on run %d", run)
		}
	}
}

func TestInjectorSpecCopyIsolated(t *testing.T) {
	inj := mustInjector(t, "stuck 0\n", 0)
	s := inj.Spec()
	s.Faults[0].Var = 7
	if inj.Spec().Faults[0].Var != 0 {
		t.Fatal("Spec() must return an isolated copy")
	}
}

func TestNewRejectsInvalidSpec(t *testing.T) {
	if _, err := New(&Spec{Faults: []Fault{{Kind: "bogus"}}}, 0); err == nil {
		t.Fatal("New accepted an invalid hand-built spec")
	}
}
