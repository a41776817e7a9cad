// Package circuits provides the nine benchmark circuits of the paper's
// Table 1, plus a deterministic synthetic-circuit generator for scaling
// studies.
//
// Table 1 reads (Circuit, Blocks, Nets, Terminals):
//
//	circ01              4   4  12
//	circ02              6   4  18
//	circ06              6   4  18
//	TwoStage Opamp      5   9  22
//	SingleEnded Opamp   9  14  32
//	Mixer               8   6  15
//	circ08              8   8  24
//	tso-cascode        21  36  46
//	benchmark24        24  48  48
//
// We interpret "Terminals" as the total number of block pins (the standard
// meaning for macro-cell benchmarks). Where the pin budget implies nets with
// a single pin (tso-cascode, benchmark24), those are terminal "pad stub"
// nets: their pin connects to the nearest floorplan boundary and the cost
// evaluator charges the pin-to-boundary distance, as device-level placers
// such as KOAN do for I/O terminals.
//
// The three named circuits are hand-wired with analog structure (Miller
// two-stage opamp, cascoded single-ended opamp, Gilbert-style mixer); the
// circNN / tso-cascode / benchmark24 entries are deterministic synthetic
// netlists with exactly the published counts.
package circuits

import (
	"fmt"
	"math/rand"
	"sort"

	"mps/internal/netlist"
)

// TableEntry records one row of the paper's Table 1.
type TableEntry struct {
	Name      string
	Blocks    int
	Nets      int
	Terminals int
}

// Table1 lists the paper's benchmark suite in paper order.
var Table1 = []TableEntry{
	{"circ01", 4, 4, 12},
	{"circ02", 6, 4, 18},
	{"circ06", 6, 4, 18},
	{"TwoStageOpamp", 5, 9, 22},
	{"SingleEndedOpamp", 9, 14, 32},
	{"Mixer", 8, 6, 15},
	{"circ08", 8, 8, 24},
	{"tso-cascode", 21, 36, 46},
	{"benchmark24", 24, 48, 48},
}

// ByName returns the named benchmark circuit. Valid names are those in
// Table1. The construction is deterministic: the same name always yields an
// identical circuit.
func ByName(name string) (*netlist.Circuit, error) {
	switch name {
	case "circ01":
		return Synthetic(SyntheticSpec{Name: name, Blocks: 4, Nets: 4, Pins: 12, Seed: 101}), nil
	case "circ02":
		return Synthetic(SyntheticSpec{Name: name, Blocks: 6, Nets: 4, Pins: 18, Seed: 102}), nil
	case "circ06":
		return Synthetic(SyntheticSpec{Name: name, Blocks: 6, Nets: 4, Pins: 18, Seed: 106}), nil
	case "TwoStageOpamp":
		return TwoStageOpamp(), nil
	case "SingleEndedOpamp":
		return SingleEndedOpamp(), nil
	case "Mixer":
		return Mixer(), nil
	case "circ08":
		return Synthetic(SyntheticSpec{Name: name, Blocks: 8, Nets: 8, Pins: 24, Seed: 108}), nil
	case "tso-cascode":
		return TSOCascode(), nil
	case "benchmark24":
		return Benchmark24(), nil
	}
	return nil, unknownError(name)
}

// CheckName returns the error ByName gives for name, without building the
// circuit: nil for every Table1 name.
func CheckName(name string) error {
	for _, e := range Table1 {
		if e.Name == name {
			return nil
		}
	}
	return unknownError(name)
}

func unknownError(name string) error {
	return fmt.Errorf("circuits: unknown benchmark %q", name)
}

// MustByName is ByName that panics on unknown names.
func MustByName(name string) *netlist.Circuit {
	c, err := ByName(name)
	if err != nil {
		panic(err)
	}
	return c
}

// Names returns the benchmark names in Table 1 order.
func Names() []string {
	names := make([]string, len(Table1))
	for i, e := range Table1 {
		names[i] = e.Name
	}
	return names
}

// TwoStageOpamp returns the classic Miller-compensated two-stage opamp of
// Figure 5: differential pair, mirror load, tail source, output stage and
// compensation capacitor — 5 blocks, 9 nets, 22 pins.
func TwoStageOpamp() *netlist.Circuit {
	b := netlist.NewBuilder("TwoStageOpamp")
	b.Block("DIFF", 10, 44, 6, 22) // M1/M2 differential pair
	b.Block("LOAD", 10, 40, 6, 20) // M3/M4 mirror load
	b.Block("TAIL", 6, 24, 5, 16)  // M5 tail current source
	b.Block("DRV", 8, 48, 6, 26)   // M6 driver + M7 bias of the output stage
	b.Block("CC", 8, 36, 8, 36)    // Miller compensation capacitor

	// Signal inputs: pad stub nets (gate of M1 / M2).
	b.Net("INP", 2, netlist.T("DIFF", 0.0, 0.5))
	b.Net("INN", 2, netlist.T("DIFF", 1.0, 0.5))
	// First-stage output: M2 drain, M4 drain, M6 gate, Cc bottom plate.
	b.Net("OUT1", 2,
		netlist.PAt("DIFF", 0.8, 1.0),
		netlist.PAt("LOAD", 0.8, 0.0),
		netlist.PAt("DRV", 0.0, 0.5),
		netlist.PAt("CC", 0.0, 0.5))
	// Mirror node: M1 drain into the diode-connected M3.
	b.Net("MIRR", 1,
		netlist.PAt("DIFF", 0.2, 1.0),
		netlist.PAt("LOAD", 0.2, 0.0))
	// Common-source node of the pair into the tail device.
	b.Net("TAILN", 1,
		netlist.PAt("DIFF", 0.5, 0.0),
		netlist.PAt("TAIL", 0.5, 1.0))
	// Output: M6 drain, M7 drain, Cc top plate.
	b.Net("OUT", 2,
		netlist.T("DRV", 1.0, 0.7),
		netlist.PAt("DRV", 1.0, 0.3),
		netlist.PAt("CC", 1.0, 0.5))
	// Supplies (M3/M4 sources as distinct pins, M6 source).
	b.Net("VDD", 0.5,
		netlist.T("LOAD", 0.2, 1.0),
		netlist.PAt("LOAD", 0.8, 1.0),
		netlist.PAt("DRV", 0.5, 1.0))
	// Ground: tail source, M7 source, capacitor shield, substrate tap.
	b.Net("VSS", 0.5,
		netlist.T("TAIL", 0.5, 0.0),
		netlist.PAt("DRV", 0.5, 0.0),
		netlist.PAt("CC", 0.5, 0.0),
		netlist.PAt("DIFF", 0.0, 0.0))
	// Bias distribution into M5 and M7 gates.
	b.Net("IBIAS", 1,
		netlist.T("TAIL", 0.0, 0.5),
		netlist.PAt("DRV", 0.0, 0.1))
	c := b.MustBuild()
	// The matched front end wants the diff pair and its mirror load
	// centered on a common axis with the tail source.
	mustSym(c, &netlist.SymmetryGroup{
		Name:    "frontend",
		SelfSym: []int{c.BlockIndex("DIFF"), c.BlockIndex("LOAD"), c.BlockIndex("TAIL")},
	})
	// Guard-ringed sensitive pair and the noisy output driver keep spacing
	// halos (design-rule clearance, see netlist.Block.Margin).
	c.Blocks[c.BlockIndex("DIFF")].Margin = 2
	c.Blocks[c.BlockIndex("DRV")].Margin = 1
	return c
}

// mustSym registers a symmetry group; benchmark definitions are static, so
// a failure is a programming error.
func mustSym(c *netlist.Circuit, g *netlist.SymmetryGroup) {
	if err := c.AddSymmetry(g); err != nil {
		panic(err)
	}
}

// SingleEndedOpamp returns a cascoded single-ended opamp:
// 9 blocks, 14 nets, 32 pins.
func SingleEndedOpamp() *netlist.Circuit {
	b := netlist.NewBuilder("SingleEndedOpamp")
	b.Block("DIFF", 10, 44, 6, 22)
	b.Block("LOAD1", 8, 32, 5, 18)
	b.Block("LOAD2", 8, 32, 5, 18)
	b.Block("TAIL", 6, 24, 5, 16)
	b.Block("CASC1", 8, 30, 5, 18)
	b.Block("CASC2", 8, 30, 5, 18)
	b.Block("DRV", 8, 48, 6, 26)
	b.Block("CC", 8, 36, 8, 36)
	b.Block("BIAS", 6, 22, 5, 14)

	b.Net("INP", 2, netlist.T("DIFF", 0.0, 0.5))
	b.Net("INN", 2, netlist.T("DIFF", 1.0, 0.5))
	b.Net("D1", 2, netlist.PAt("DIFF", 0.2, 1.0), netlist.PAt("CASC1", 0.5, 0.0))
	b.Net("D2", 2, netlist.PAt("DIFF", 0.8, 1.0), netlist.PAt("CASC2", 0.5, 0.0))
	b.Net("C1", 2, netlist.PAt("CASC1", 0.5, 1.0), netlist.PAt("LOAD1", 0.5, 0.0))
	// First-stage output: cascode drain, load drain, driver gate, Cc bottom.
	b.Net("C2", 2,
		netlist.PAt("CASC2", 0.5, 1.0),
		netlist.PAt("LOAD2", 0.5, 0.0),
		netlist.PAt("DRV", 0.0, 0.5),
		netlist.PAt("CC", 0.0, 0.5))
	// Cascode gate bias rail.
	b.Net("CASCB", 1,
		netlist.PAt("CASC1", 0.0, 0.5),
		netlist.PAt("CASC2", 1.0, 0.5),
		netlist.PAt("BIAS", 0.5, 1.0))
	// Mirror gate rail for the loads.
	b.Net("MIRB", 1,
		netlist.PAt("LOAD1", 0.0, 0.5),
		netlist.PAt("LOAD2", 1.0, 0.5),
		netlist.PAt("BIAS", 0.0, 1.0))
	b.Net("TAILN", 1, netlist.PAt("DIFF", 0.5, 0.0), netlist.PAt("TAIL", 0.5, 1.0))
	b.Net("OUT", 2, netlist.T("DRV", 1.0, 0.5), netlist.PAt("CC", 1.0, 0.5))
	b.Net("VDD", 0.5,
		netlist.T("LOAD1", 0.5, 1.0),
		netlist.PAt("LOAD2", 0.5, 1.0),
		netlist.PAt("DRV", 0.5, 1.0))
	b.Net("VSS", 0.5,
		netlist.T("TAIL", 0.5, 0.0),
		netlist.PAt("DRV", 0.5, 0.0),
		netlist.PAt("BIAS", 0.5, 0.0))
	b.Net("IBIAS", 1, netlist.T("BIAS", 0.0, 0.5), netlist.PAt("TAIL", 0.0, 0.5))
	b.Net("SUB", 0.25, netlist.PAt("DIFF", 0.0, 0.0), netlist.PAt("CASC1", 0.0, 0.0))
	c := b.MustBuild()
	// Cascode branches and mirror loads mirror about the diff-pair axis.
	mustSym(c, &netlist.SymmetryGroup{
		Name: "first-stage",
		Pairs: []netlist.SymPair{
			{A: c.BlockIndex("CASC1"), B: c.BlockIndex("CASC2")},
			{A: c.BlockIndex("LOAD1"), B: c.BlockIndex("LOAD2")},
		},
		SelfSym: []int{c.BlockIndex("DIFF"), c.BlockIndex("TAIL")},
	})
	return c
}

// Mixer returns a Gilbert-style mixer core: 8 blocks, 6 nets, 15 pins.
func Mixer() *netlist.Circuit {
	b := netlist.NewBuilder("Mixer")
	b.Block("RFPAIR", 10, 40, 6, 20)
	b.Block("LOPAIRA", 8, 32, 6, 18)
	b.Block("LOPAIRB", 8, 32, 6, 18)
	b.Block("LOADR1", 6, 28, 4, 30)
	b.Block("LOADR2", 6, 28, 4, 30)
	b.Block("TAIL", 6, 24, 5, 16)
	b.Block("CAPA", 8, 30, 8, 30)
	b.Block("CAPB", 8, 30, 8, 30)

	b.Net("RF", 2, netlist.T("RFPAIR", 0.0, 0.5), netlist.PAt("RFPAIR", 1.0, 0.5))
	b.Net("LO", 2,
		netlist.T("LOPAIRA", 0.0, 0.5),
		netlist.PAt("LOPAIRB", 1.0, 0.5),
		netlist.PAt("RFPAIR", 0.5, 1.0))
	b.Net("IFP", 2,
		netlist.PAt("LOPAIRA", 0.5, 1.0),
		netlist.PAt("LOADR1", 0.5, 0.0),
		netlist.T("CAPA", 0.5, 0.5))
	b.Net("IFN", 2,
		netlist.PAt("LOPAIRB", 0.5, 1.0),
		netlist.PAt("LOADR2", 0.5, 0.0),
		netlist.T("CAPB", 0.5, 0.5))
	b.Net("TAILN", 1, netlist.PAt("RFPAIR", 0.5, 0.0), netlist.PAt("TAIL", 0.5, 1.0))
	b.Net("VDD", 0.5, netlist.T("LOADR1", 0.5, 1.0), netlist.PAt("LOADR2", 0.5, 1.0))
	c := b.MustBuild()
	// The differential IF path mirrors: switching quads, loads and filter
	// capacitors pair up around the RF pair.
	mustSym(c, &netlist.SymmetryGroup{
		Name: "if-path",
		Pairs: []netlist.SymPair{
			{A: c.BlockIndex("LOPAIRA"), B: c.BlockIndex("LOPAIRB")},
			{A: c.BlockIndex("LOADR1"), B: c.BlockIndex("LOADR2")},
			{A: c.BlockIndex("CAPA"), B: c.BlockIndex("CAPB")},
		},
		SelfSym: []int{c.BlockIndex("RFPAIR")},
	})
	return c
}

// TSOCascode returns the 21-module cascoded two-stage-opamp benchmark:
// 21 blocks, 36 nets, 46 pins. Ten 2-pin internal nets form the signal
// spine; 26 single-pin terminal nets model pad/bias connections.
func TSOCascode() *netlist.Circuit {
	return Synthetic(SyntheticSpec{
		Name: "tso-cascode", Blocks: 21, Nets: 36, Pins: 46, Seed: 121,
	})
}

// Benchmark24 returns the 24-module synthetic stress benchmark:
// 24 blocks, 48 nets, 48 pins (all single-pin terminal nets, so its cost is
// driven by area and pad proximity).
func Benchmark24() *netlist.Circuit {
	return Synthetic(SyntheticSpec{
		Name: "benchmark24", Blocks: 24, Nets: 48, Pins: 48, Seed: 124,
	})
}

// ScalingFamily returns synthetic circuits of increasing block count with
// proportionally scaled net/pin budgets, for structure-size and
// generation-time scaling studies beyond the paper's nine benchmarks.
// Each circuit has n blocks, 2n nets and 5n pins, deterministic in n.
func ScalingFamily(sizes []int) []*netlist.Circuit {
	out := make([]*netlist.Circuit, len(sizes))
	for i, n := range sizes {
		out[i] = Synthetic(SyntheticSpec{
			Name:   fmt.Sprintf("scale%02d", n),
			Blocks: n,
			Nets:   2 * n,
			Pins:   5 * n,
			Seed:   int64(1000 + n),
		})
	}
	return out
}

// SyntheticSpec parameterizes a deterministic synthetic benchmark.
type SyntheticSpec struct {
	Name   string
	Blocks int
	Nets   int
	Pins   int // total pins across all nets; must be >= Nets
	Seed   int64
}

// Synthetic builds a circuit with exactly the requested block, net and pin
// counts. Pins are distributed as evenly as possible over nets (so nets have
// floor(Pins/Nets) or one more); multi-pin nets connect distinct blocks
// chosen round-robin from a seeded shuffle, and single-pin nets are marked
// as terminal pad stubs. The construction is fully deterministic in Seed.
func Synthetic(spec SyntheticSpec) *netlist.Circuit {
	if spec.Blocks <= 0 || spec.Nets <= 0 || spec.Pins < spec.Nets {
		panic(fmt.Sprintf("circuits: invalid synthetic spec %+v", spec))
	}
	rng := rand.New(rand.NewSource(spec.Seed))
	b := netlist.NewBuilder(spec.Name)

	for i := 0; i < spec.Blocks; i++ {
		wMin := 6 + rng.Intn(8)
		hMin := 5 + rng.Intn(7)
		wMax := wMin + 10 + rng.Intn(28)
		hMax := hMin + 8 + rng.Intn(22)
		b.Block(fmt.Sprintf("B%02d", i), wMin, wMax, hMin, hMax)
	}

	// Distribute pins over nets: larger nets first so the signal spine is
	// built from the most-connected nets.
	perNet := make([]int, spec.Nets)
	for i := range perNet {
		perNet[i] = spec.Pins / spec.Nets
	}
	for i := 0; i < spec.Pins%spec.Nets; i++ {
		perNet[i]++
	}
	sort.Sort(sort.Reverse(sort.IntSlice(perNet)))

	// Round-robin block assignment over a seeded shuffle so every block
	// appears in some net before any block repeats.
	order := rng.Perm(spec.Blocks)
	next := 0
	takeBlock := func() int {
		blk := order[next%spec.Blocks]
		next++
		if next%spec.Blocks == 0 {
			order = rng.Perm(spec.Blocks)
		}
		return blk
	}

	for j, count := range perNet {
		pins := make([]netlist.PinRef, 0, count)
		used := make(map[int]bool, count)
		for k := 0; k < count; k++ {
			blk := takeBlock()
			// Prefer distinct blocks within a net; fall back to reuse when
			// a net has more pins than there are blocks.
			for tries := 0; used[blk] && tries < spec.Blocks; tries++ {
				blk = takeBlock()
			}
			used[blk] = true
			name := fmt.Sprintf("B%02d", blk)
			fx := float64(rng.Intn(5)) / 4
			fy := float64(rng.Intn(5)) / 4
			if count == 1 {
				pins = append(pins, netlist.T(name, fx, fy))
			} else {
				pins = append(pins, netlist.PAt(name, fx, fy))
			}
		}
		b.Net(fmt.Sprintf("N%02d", j), 1, pins...)
	}
	return b.MustBuild()
}
