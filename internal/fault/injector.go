package fault

import (
	"math"
	"math/rand"

	"hybridpde/internal/analog"
)

// Injector compiles a Spec into the analog.Injector contract. It is owned
// by exactly one accelerator and driven from its serial solve path, so it
// needs no locking. All randomness (burst activation) is drawn in BeginRun
// from the injector's own seeded generator; the evaluation-time hooks are
// pure functions of the per-run state, keeping whole solves bit-reproducible
// under a fixed seed.
type Injector struct {
	spec Spec
	rng  *rand.Rand

	stuckAll, railedAll bool
	stuck, railed       map[int]bool
	dacDrift, adcDrift  []drift
	satFactor           float64
	bursts              []burst
	dead                map[int]bool
}

type drift struct {
	v           int // AllVars or a specific variable
	gain, shift float64
}

// burst is a transient sinusoidal disturbance on the integrator drives,
// active for a whole run with probability prob (drawn in BeginRun).
type burst struct {
	prob, amp, from, to float64
	whole               bool // zero window in the spec: disturb the whole run
	active              bool
}

// burstPeriodTau is the disturbance period in integrator time constants —
// slow enough for the slew-limited circuit to follow, fast enough to keep
// the state off equilibrium for the window's duration.
const burstPeriodTau = 3.0

// railRate is the pull strength (per τ) of a railed integrator toward the
// positive rail at full scale.
const railRate = 8.0

// New compiles a validated Spec into an Injector. salt is mixed into the
// spec's seed so fleets of accelerators (e.g. one per serve worker) draw
// independent but individually reproducible fault sequences; standalone
// callers pass 0.
func New(spec *Spec, salt int64) (*Injector, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	inj := &Injector{
		spec:      *spec,
		rng:       rand.New(rand.NewSource(spec.Seed + salt)),
		stuck:     map[int]bool{},
		railed:    map[int]bool{},
		dead:      map[int]bool{},
		satFactor: 1,
	}
	inj.spec.Faults = append([]Fault(nil), spec.Faults...)
	for _, f := range inj.spec.Faults {
		switch f.Kind {
		case KindStuck:
			if f.Var == AllVars {
				inj.stuckAll = true
			} else {
				inj.stuck[f.Var] = true
			}
		case KindRailed:
			if f.Var == AllVars {
				inj.railedAll = true
			} else {
				inj.railed[f.Var] = true
			}
		case KindDACDrift:
			inj.dacDrift = append(inj.dacDrift, drift{v: f.Var, gain: f.Gain, shift: f.Offset})
		case KindADCDrift:
			inj.adcDrift = append(inj.adcDrift, drift{v: f.Var, gain: f.Gain, shift: f.Offset})
		case KindSaturation:
			inj.satFactor *= f.Factor
		case KindBurst:
			whole := f.From <= 0 && f.To <= 0
			inj.bursts = append(inj.bursts, burst{prob: f.Prob, amp: f.Amp, from: f.From, to: f.To, whole: whole})
		case KindDeadTile:
			inj.dead[f.Tile] = true
		}
	}
	return inj, nil
}

// Spec returns a copy of the compiled spec (for metrics and logging).
func (inj *Injector) Spec() Spec {
	s := inj.spec
	s.Faults = append([]Fault(nil), inj.spec.Faults...)
	return s
}

// BeginRun implements analog.Injector: transient bursts draw their per-run
// activation here, and nowhere else.
func (inj *Injector) BeginRun() {
	for i := range inj.bursts {
		b := &inj.bursts[i]
		b.active = inj.rng.Float64() < b.prob
	}
}

// UsableTiles implements analog.Injector: dead tiles reduce capacity.
func (inj *Injector) UsableTiles(total int) int {
	n := total
	for t := range inj.dead {
		if t >= 0 && t < total {
			n--
		}
	}
	return n
}

// Saturation implements analog.Injector.
func (inj *Injector) Saturation(base float64) float64 { return base * inj.satFactor }

// DAC implements analog.Injector.
func (inj *Injector) DAC(i int, v float64) float64 { return applyDrift(inj.dacDrift, i, v) }

// ADC implements analog.Injector.
func (inj *Injector) ADC(i int, v float64) float64 { return applyDrift(inj.adcDrift, i, v) }

func applyDrift(ds []drift, i int, v float64) float64 {
	for _, d := range ds {
		if d.v == AllVars || d.v == i {
			v = float64(v*(1+d.gain)) + d.shift
		}
	}
	return v
}

// Drive implements analog.Injector. Stuck integrators hold their state;
// railed ones slew toward the positive rail; active bursts superpose a
// sinusoid with a per-variable phase so neighbouring variables are not
// disturbed coherently. The phase is a golden-ratio hash of the variable
// index — deterministic, no per-evaluation randomness.
func (inj *Injector) Drive(t float64, i int, w, d float64) float64 {
	if inj.stuckAll || inj.stuck[i] {
		return 0
	}
	if inj.railedAll || inj.railed[i] {
		return railRate * (1 - w)
	}
	for bi := range inj.bursts {
		b := &inj.bursts[bi]
		if !b.active {
			continue
		}
		if !b.whole && (t < b.from || t >= b.to) {
			continue
		}
		d += float64(b.amp * math.Sin(2*math.Pi*((t-b.from)/burstPeriodTau+phase(i))))
	}
	return d
}

// phase maps a variable index to a fraction of a period via the golden
// ratio, spreading disturbance phases without shared state.
func phase(i int) float64 {
	const golden = 0.6180339887498949
	p := float64(float64(i+1) * golden)
	return p - math.Floor(p)
}

var _ analog.Injector = (*Injector)(nil)
