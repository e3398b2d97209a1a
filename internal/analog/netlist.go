package analog

import (
	"errors"
	"fmt"
)

// This file models the paper's configuration workflow (Figure 4): analog
// subcomponents are instantiated against fabric resources, exposed ports
// are wired through the per-tile crossbar and the sparse inter-tile/
// inter-chip fabric, parameters are loaded through DACs, and the whole
// configuration is committed before the integrators are released
// (`fabric->cfgCommit(); fabric->execStart();`).
//
// The solve fronts (SolveSparse, SolveHomotopy) use this layer
// implicitly through AllocateCells; it is exposed so that programs can be
// built and validated the way the paper's C++ sample does, including the
// routing feasibility checks a real crossbar imposes.

// PortDir distinguishes producer and consumer ports.
type PortDir int

// Port directions.
const (
	PortOut PortDir = iota
	PortIn
)

// Port is one analog terminal of an allocated component.
type Port struct {
	Component *Component
	Tile      *Tile
	Chip      int
	Name      string
	Dir       PortDir
}

// Connection is one committed wire between an output and an input port.
// Joining wires sums currents (Figure 1), so an input port may receive
// several connections; each output may fan out only through an allocated
// fanout component, which the router enforces.
type Connection struct {
	From, To *Port
}

// ErrNotCommitted is returned when execution is started before the
// configuration is committed.
var ErrNotCommitted = errors.New("analog: configuration not committed")

// ErrRouting is returned when a requested wire cannot be realised by the
// crossbar topology.
var ErrRouting = errors.New("analog: connection not routable")

// Netlist accumulates a program's components and wiring before commit.
type Netlist struct {
	fabric      *Fabric
	connections []Connection
	fanoutLoad  map[*Component]int // output load per driving component
	committed   bool
	running     bool
}

// NewNetlist starts an empty program on the fabric.
func (f *Fabric) NewNetlist() *Netlist {
	return &Netlist{fabric: f, fanoutLoad: map[*Component]int{}}
}

// PortOf exposes a port on an allocated component for wiring.
func (n *Netlist) PortOf(tileIndex int, c *Component, name string, dir PortDir) (*Port, error) {
	tiles := n.fabric.Tiles()
	if tileIndex < 0 || tileIndex >= len(tiles) {
		return nil, fmt.Errorf("analog: tile %d out of range", tileIndex)
	}
	if c == nil || !c.used {
		return nil, fmt.Errorf("analog: port %q on unallocated component", name)
	}
	return &Port{
		Component: c,
		Tile:      tiles[tileIndex],
		Chip:      tileIndex / n.fabric.Config.Chip.Tiles,
		Name:      name,
		Dir:       dir,
	}, nil
}

// Connect requests a wire from an output port to an input port, validating
// the crossbar topology:
//
//   - within a tile, connectivity is all-to-all (Figure 5: "a programmable
//     crossbar enables all-to-all connectivity within each tile");
//   - between tiles (and chips) connectivity is sparse and neighbourly —
//     only adjacent tiles in the linear tile order may be wired, matching
//     the "tree-like with sparse connectivity" fabric;
//   - every output may drive at most one sink directly; further sinks need
//     fanout units (current copiers), one extra sink per fanout.
func (n *Netlist) Connect(from, to *Port) error {
	if n.committed {
		return errors.New("analog: cannot wire a committed configuration")
	}
	if from == nil || to == nil {
		return errors.New("analog: nil port")
	}
	if from.Dir != PortOut || to.Dir != PortIn {
		return fmt.Errorf("%w: must connect an output to an input", ErrRouting)
	}
	if from.Tile != to.Tile {
		d := tileDistance(n.fabric, from, to)
		if d > 1 {
			return fmt.Errorf("%w: tiles are %d apart; only neighbouring tiles are wired", ErrRouting, d)
		}
	}
	// Fanout budget: the first sink is free; each extra sink consumes one
	// fanout unit from the driving tile.
	load := n.fanoutLoad[from.Component]
	if load >= 1 {
		if _, err := from.Tile.alloc(KindFanout, 1); err != nil {
			return fmt.Errorf("%w: output of %s needs a fanout for sink %d: %w",
				ErrRouting, from.Name, load+1, err)
		}
	}
	n.fanoutLoad[from.Component] = load + 1
	n.connections = append(n.connections, Connection{From: from, To: to})
	return nil
}

// tileDistance is the hop count in the linear tile order (board-level
// neighbour wiring).
func tileDistance(f *Fabric, a, b *Port) int {
	tiles := f.Tiles()
	ai, bi := -1, -1
	for i, t := range tiles {
		if t == a.Tile {
			ai = i
		}
		if t == b.Tile {
			bi = i
		}
	}
	d := ai - bi
	if d < 0 {
		d = -d
	}
	return d
}

// Connections returns the committed or pending wires.
func (n *Netlist) Connections() []Connection {
	out := make([]Connection, len(n.connections))
	copy(out, n.connections)
	return out
}

// CfgCommit freezes the configuration, the analogue of
// `fabric->cfgCommit()`. Further wiring is rejected.
func (n *Netlist) CfgCommit() error {
	if n.committed {
		return errors.New("analog: configuration already committed")
	}
	if !n.fabric.Calibrated() {
		return errors.New("analog: calibrate the fabric before committing")
	}
	n.committed = true
	return nil
}

// ExecStart releases the integrators (`fabric->execStart()`).
func (n *Netlist) ExecStart() error {
	if !n.committed {
		return ErrNotCommitted
	}
	if n.running {
		return errors.New("analog: already running")
	}
	n.running = true
	return nil
}

// ExecStop halts and re-arms the integrators (`fabric->execStop()`).
func (n *Netlist) ExecStop() error {
	if !n.running {
		return errors.New("analog: not running")
	}
	n.running = false
	return nil
}

// Committed reports whether the configuration has been frozen.
func (n *Netlist) Committed() bool { return n.committed }

// Running reports whether the integrators are released.
func (n *Netlist) Running() bool { return n.running }

// SetDAC loads a digital code into an allocated DAC, quantised at the
// converter's resolution — the `slice.dac->setConstant(...)` call of the
// paper's sample. The value must lie in the normalised range ±1.
func (n *Netlist) SetDAC(c *Component, value float64) (float64, error) {
	if c == nil || c.Kind != KindDAC {
		return 0, fmt.Errorf("analog: SetDAC on non-DAC component")
	}
	if !c.used {
		return 0, fmt.Errorf("analog: SetDAC on unallocated DAC")
	}
	if value < -1 || value > 1 {
		return 0, fmt.Errorf("analog: DAC code %g outside the normalised range ±1", value)
	}
	q := quantize(value, n.fabric.Config.DACBits)
	// The loaded constant exhibits the DAC's residual offset.
	return q + c.Offset, nil
}
