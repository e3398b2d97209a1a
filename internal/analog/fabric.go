package analog

import (
	"errors"
	"fmt"
	"math/rand"
)

// ErrInsufficientHardware is returned when a problem needs more components
// than the fabric provides; callers fall back to decomposition (§6.3).
var ErrInsufficientHardware = errors.New("analog: problem exceeds fabric capacity")

// Component is one analog functional unit with its manufacturing mismatch.
// Process variation gives every unit a gain error and an offset; calibration
// (§5.4) trims both, but the trim resolution is itself limited by DAC
// precision, leaving a residual.
type Component struct {
	// Raw mismatch from process variation.
	rawGain, rawOffset float64
	// Residual after calibration; what the datapath actually exhibits.
	Gain   float64 // multiplicative error: output ×(1+Gain)
	Offset float64 // additive error in dynamic-range units
	used   bool
}

// Tile models one accelerator tile: fixed pools of components joined by a
// crossbar with all-to-all connectivity inside the tile (Figure 5 right).
type Tile struct {
	Index      int
	components map[string][]*Component
}

func newTile(idx int, spec TileSpec, rng *rand.Rand, cfg Config) *Tile {
	t := &Tile{Index: idx, components: map[string][]*Component{}}
	add := func(kind string, n int) {
		for i := 0; i < n; i++ {
			c := &Component{
				rawGain:   rng.NormFloat64() * cfg.RawGainSigma,
				rawOffset: rng.NormFloat64() * cfg.RawOffsetSigma,
			}
			// Uncalibrated hardware exhibits the raw mismatch.
			c.Gain, c.Offset = c.rawGain, c.rawOffset
			t.components[kind] = append(t.components[kind], c)
		}
	}
	add(KindIntegrator, spec.Integrators)
	add(KindMultiplier, spec.Multipliers)
	add(KindFanout, spec.Fanouts)
	add(KindDAC, spec.DACs)
	add(KindADC, spec.ADCs)
	return t
}

// alloc claims n unused components of the given kind.
func (t *Tile) alloc(kind string, n int) ([]*Component, error) {
	var out []*Component
	for _, c := range t.components[kind] {
		if !c.used {
			out = append(out, c)
			if len(out) == n {
				for _, cc := range out {
					cc.used = true
				}
				return out, nil
			}
		}
	}
	return nil, fmt.Errorf("%w: tile %d has no %d free %s units", ErrInsufficientHardware, t.Index, n, kind)
}

// free releases every component in the tile.
func (t *Tile) free() {
	for _, pool := range t.components {
		for _, c := range pool {
			c.used = false
		}
	}
}

// Chip is one die of four tiles.
type Chip struct {
	Index int
	Tiles []*Tile
}

// Config tunes the hardware non-idealities of the model. The defaults are
// calibrated so the Figure 6 experiment lands at the paper's measured
// 5.38 % total RMS solution error.
type Config struct {
	// Chips on the board; the prototype has 2 (§5.2). Scaled-up designs
	// raise this; one tile still hosts one scalar variable.
	Chips int
	// Chip layout; defaults to PrototypeChip.
	Chip ChipSpec
	// Seed makes the mismatch draw reproducible.
	Seed int64
	// RawGainSigma/RawOffsetSigma are pre-calibration process variation.
	RawGainSigma, RawOffsetSigma float64
	// CalibrationResidual is the fraction of mismatch calibration cannot
	// trim (limited by DAC precision, §5.4). Calibrate multiplies the raw
	// errors by this factor.
	CalibrationResidual float64
	// DACBits/ADCBits are converter resolutions; the prototype uses 8-bit
	// continuous-time converters (Figure 5).
	DACBits, ADCBits int
	// SaturationLimit is the dynamic-range clip in normalised units;
	// signals cannot exceed ±SaturationLimit.
	SaturationLimit float64
	// SlewLimit caps |dw/dt| per state in normalised units per time
	// constant, modelling finite current drive.
	SlewLimit float64
}

func (c *Config) defaults() {
	if c.Chips <= 0 {
		c.Chips = 2
	}
	if c.Chip.Tiles == 0 {
		c.Chip = PrototypeChip
	}
	if c.RawGainSigma <= 0 {
		c.RawGainSigma = 0.10
	}
	if c.RawOffsetSigma <= 0 {
		// Calibrated so the Figure 6 experiment (400 random 2×2 problems)
		// reproduces the paper's measured 5.38 % total RMS solution error.
		c.RawOffsetSigma = 0.11
	}
	if c.CalibrationResidual <= 0 {
		c.CalibrationResidual = 0.12
	}
	if c.DACBits == 0 {
		c.DACBits = 8
	}
	if c.ADCBits == 0 {
		c.ADCBits = 8
	}
	if c.SaturationLimit <= 0 {
		c.SaturationLimit = 2.0
	}
	if c.SlewLimit <= 0 {
		// Slew of ~10 dynamic ranges per time constant: fast enough that
		// it never binds during normal settling (Newton-flow rates are
		// O(1)), slow enough that near-singular Jacobian crossings —
		// where the ideal flow is unbounded — stay integrable.
		c.SlewLimit = 10.0
	}
}

// Fabric is the top-level programmable analog array, the Go counterpart of
// the paper's `Fabric` C++ class (Figure 4).
type Fabric struct {
	Config Config
	Chips  []*Chip
	rng    *rand.Rand
}

// NewFabric powers up a board of accelerator chips with fresh process
// variation drawn from Seed. The fabric starts uncalibrated.
func NewFabric(cfg Config) *Fabric {
	cfg.defaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	f := &Fabric{Config: cfg, rng: rng}
	for ci := 0; ci < cfg.Chips; ci++ {
		chip := &Chip{Index: ci}
		for ti := 0; ti < cfg.Chip.Tiles; ti++ {
			chip.Tiles = append(chip.Tiles, newTile(ti, cfg.Chip.Tile, rng, cfg))
		}
		f.Chips = append(f.Chips, chip)
	}
	return f
}

// Calibrate trims every component's gain and offset to the residual floor,
// mirroring `fabric->calibrate()` in the paper's programming sample. It is
// idempotent.
func (f *Fabric) Calibrate() {
	for _, chip := range f.Chips {
		for _, tile := range chip.Tiles {
			for _, pool := range tile.components {
				for _, c := range pool {
					c.Gain = c.rawGain * f.Config.CalibrationResidual
					c.Offset = c.rawOffset * f.Config.CalibrationResidual
				}
			}
		}
	}
}

// Tiles returns every tile on the board in deterministic order.
func (f *Fabric) Tiles() []*Tile {
	var out []*Tile
	for _, c := range f.Chips {
		out = append(out, c.Tiles...)
	}
	return out
}

// Capacity reports how many scalar PDE variables the fabric can host: one
// per tile (§5.2: "each tile is in charge of one scalar element in u or v").
func (f *Fabric) Capacity() int { return len(f.Tiles()) }

// FreeAll releases all allocations, the analogue of `delete[] cells` in the
// paper's sample ("destroying objects representing analog variables frees
// the analog hardware for other calculations").
func (f *Fabric) FreeAll() {
	for _, t := range f.Tiles() {
		t.free()
	}
}

// NewtonCell is the per-variable datapath of Figure 1: the allocated
// components implementing the nonlinear function, the Jacobian row, the
// quotient feedback loop and the Newton feedback loop for one unknown. It
// is the Go counterpart of the paper's `NewtonTile`.
type NewtonCell struct {
	Tile *Tile
	// Aggregated datapath non-idealities, produced by the allocated
	// components in series.
	FuncGain   float64 // multiplicative error on F_i evaluation
	FuncOffset float64 // additive error on F_i, dynamic-range units
	JacGain    float64 // multiplicative error on Jacobian row i
	IntOffset  float64 // integrator leak bias on du_i/dt
}

// AllocateCells claims one tile per variable and aggregates each cell's
// component mismatch into datapath-level error terms.
func (f *Fabric) AllocateCells(vars int) ([]*NewtonCell, error) {
	tiles := f.Tiles()
	if vars > len(tiles) {
		return nil, fmt.Errorf("%w: need %d tiles for %d variables, have %d",
			ErrInsufficientHardware, vars, vars, len(tiles))
	}
	budget := PrototypeBudget.Totals()
	cells := make([]*NewtonCell, 0, vars)
	for v := 0; v < vars; v++ {
		tile := tiles[v]
		cell := &NewtonCell{Tile: tile}
		ints, err := tile.alloc(KindIntegrator, budget.Integrator)
		if err != nil {
			f.FreeAll()
			return nil, err
		}
		muls, err := tile.alloc(KindMultiplier, budget.Multiplier)
		if err != nil {
			f.FreeAll()
			return nil, err
		}
		fans, err := tile.alloc(KindFanout, budget.Fanout)
		if err != nil {
			f.FreeAll()
			return nil, err
		}
		dacs, err := tile.alloc(KindDAC, budget.DAC)
		if err != nil {
			f.FreeAll()
			return nil, err
		}
		// The nonlinear-function block chains multipliers, fanouts and
		// DACs; its gain errors multiply and offsets add. The Jacobian
		// block only feeds the quotient loop, so its errors perturb J.
		nf := PrototypeBudget.NonlinearFunction
		for i := 0; i < nf.Multiplier; i++ {
			cell.FuncGain += muls[i].Gain
			cell.FuncOffset += muls[i].Offset
		}
		for i := 0; i < nf.Fanout; i++ {
			cell.FuncOffset += fans[i].Offset
		}
		for i := 0; i < nf.DAC; i++ {
			cell.FuncOffset += dacs[i].Offset
		}
		jb := PrototypeBudget.JacobianMatrix
		for i := 0; i < jb.Multiplier; i++ {
			cell.JacGain += muls[nf.Multiplier+i].Gain
		}
		cell.IntOffset = ints[0].Offset * 0.1 // integrator leak is small
		cells = append(cells, cell)
	}
	return cells, nil
}
