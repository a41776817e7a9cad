// Package netlist models the circuits the placer operates on: rectangular
// blocks (module instances) with sizable dimensions, pins at fractional
// offsets of each block, and nets connecting pins.
//
// A Circuit is the unit the multi-placement structure is generated for. Its
// blocks carry designer-set minimum and maximum widths and heights (the
// wm/wM/hm/hM constants of paper §2.1); all other quantities — coordinates
// and actual dimensions — live in placement objects, not here.
package netlist

import (
	"fmt"
	"sync/atomic"

	"mps/internal/geom"
)

// Block is one module of a circuit, identified by its index in the circuit's
// Blocks slice. Dimensions are bounded by the inclusive intervals
// [WMin, WMax] and [HMin, HMax] in layout units.
type Block struct {
	Name string
	// WMin, WMax, HMin, HMax bound the block's sizable dimensions.
	WMin, WMax int
	HMin, HMax int
	// Margin is the design-rule spacing halo around the block in layout
	// units: two blocks must keep max(Margin_a, Margin_b) clearance.
	// Sensitive analog modules (guard-ringed pairs, noisy drivers) set it
	// non-zero; the default 0 means abutment is allowed.
	Margin int
}

// WRange returns the block's width interval [WMin, WMax].
func (b *Block) WRange() geom.Interval { return geom.NewInterval(b.WMin, b.WMax) }

// HRange returns the block's height interval [HMin, HMax].
func (b *Block) HRange() geom.Interval { return geom.NewInterval(b.HMin, b.HMax) }

// Validate reports whether the block's dimension bounds are usable.
func (b *Block) Validate() error {
	if b.WMin <= 0 || b.HMin <= 0 {
		return fmt.Errorf("netlist: block %q has non-positive minimum dims (%d x %d)", b.Name, b.WMin, b.HMin)
	}
	if b.WMax < b.WMin || b.HMax < b.HMin {
		return fmt.Errorf("netlist: block %q has inverted dim bounds w[%d,%d] h[%d,%d]",
			b.Name, b.WMin, b.WMax, b.HMin, b.HMax)
	}
	if b.Margin < 0 {
		return fmt.Errorf("netlist: block %q has negative margin %d", b.Name, b.Margin)
	}
	return nil
}

// Pin is a connection point on a block. Its physical location is a fraction
// of the block's *current* width and height so that wire lengths respond to
// dimension changes. FracX and FracY are in [0, 1].
type Pin struct {
	Block      int     // index into Circuit.Blocks
	FracX      float64 // horizontal offset as a fraction of block width
	FracY      float64 // vertical offset as a fraction of block height
	IsTerminal bool    // external circuit terminal routed through this pin
}

// Position returns the pin's location for a block anchored at (x, y) with
// current dimensions w x h.
func (p Pin) Position(x, y, w, h int) geom.Point {
	return geom.Point{
		X: x + int(p.FracX*float64(w)+0.5),
		Y: y + int(p.FracY*float64(h)+0.5),
	}
}

// Net is a set of electrically connected pins.
type Net struct {
	Name   string
	Pins   []Pin
	Weight float64 // wire-length weight; 1.0 if unset during validation
}

// Circuit is a named set of blocks and nets — the topology a
// multi-placement structure is generated for. Symmetry groups, when
// present, are honored as soft constraints by the cost evaluators.
type Circuit struct {
	Name       string
	Blocks     []*Block
	Nets       []*Net
	Symmetries []*SymmetryGroup

	// blockNets caches BlockNets.
	blockNets atomic.Pointer[[][]int]
}

// N returns the number of blocks.
func (c *Circuit) N() int { return len(c.Blocks) }

// BlockNets returns, per block, the ascending indices of the nets with a
// pin on it: the nets whose lengths can change when that block's
// dimensions do. It is built on first use and cached on the circuit, so
// no block, net or pin may change after the first call; the result is
// shared and must not be modified.
func (c *Circuit) BlockNets() [][]int {
	if bn := c.blockNets.Load(); bn != nil {
		return *bn
	}
	bn := make([][]int, len(c.Blocks))
	for k, net := range c.Nets {
		for _, p := range net.Pins {
			if nets := bn[p.Block]; len(nets) == 0 || nets[len(nets)-1] != k {
				bn[p.Block] = append(nets, k)
			}
		}
	}
	c.blockNets.Store(&bn)
	return bn
}

// Terminals returns the total number of terminal pins over all nets,
// matching the "Terminals" column of the paper's Table 1.
func (c *Circuit) Terminals() int {
	n := 0
	for _, net := range c.Nets {
		for _, p := range net.Pins {
			if p.IsTerminal {
				n++
			}
		}
	}
	return n
}

// PinCount returns the total number of pins over all nets.
func (c *Circuit) PinCount() int {
	n := 0
	for _, net := range c.Nets {
		n += len(net.Pins)
	}
	return n
}

// Validate checks structural consistency: non-empty, valid block bounds,
// pin indices in range, pin fractions in [0,1], and no empty nets.
// Single-pin nets are allowed: a single terminal pin models a pad-stub net
// whose wire runs to the floorplan boundary.
// Validate also defaults net weights to 1.
func (c *Circuit) Validate() error {
	if c.Name == "" {
		return fmt.Errorf("netlist: circuit has no name")
	}
	if len(c.Blocks) == 0 {
		return fmt.Errorf("netlist: circuit %q has no blocks", c.Name)
	}
	seen := make(map[string]bool, len(c.Blocks))
	for i, b := range c.Blocks {
		if err := b.Validate(); err != nil {
			return err
		}
		if seen[b.Name] {
			return fmt.Errorf("netlist: circuit %q has duplicate block name %q", c.Name, b.Name)
		}
		seen[b.Name] = true
		_ = i
	}
	for _, net := range c.Nets {
		if len(net.Pins) == 0 {
			return fmt.Errorf("netlist: circuit %q net %q has no pins", c.Name, net.Name)
		}
		if len(net.Pins) == 1 && !net.Pins[0].IsTerminal {
			return fmt.Errorf("netlist: circuit %q net %q has a single non-terminal pin",
				c.Name, net.Name)
		}
		if net.Weight == 0 {
			net.Weight = 1
		}
		if net.Weight < 0 {
			return fmt.Errorf("netlist: circuit %q net %q has negative weight", c.Name, net.Name)
		}
		for _, p := range net.Pins {
			if p.Block < 0 || p.Block >= len(c.Blocks) {
				return fmt.Errorf("netlist: circuit %q net %q references block %d (have %d blocks)",
					c.Name, net.Name, p.Block, len(c.Blocks))
			}
			if p.FracX < 0 || p.FracX > 1 || p.FracY < 0 || p.FracY > 1 {
				return fmt.Errorf("netlist: circuit %q net %q has pin fraction (%g,%g) outside [0,1]",
					c.Name, net.Name, p.FracX, p.FracY)
			}
		}
	}
	for _, g := range c.Symmetries {
		if err := g.Validate(c.N()); err != nil {
			return err
		}
	}
	return nil
}

// MaxArea returns the sum over blocks of WMax*HMax — an upper bound on the
// area the circuit can occupy, used to size floorplans.
func (c *Circuit) MaxArea() int64 {
	var a int64
	for _, b := range c.Blocks {
		a += int64(b.WMax) * int64(b.HMax)
	}
	return a
}

// MinArea returns the sum over blocks of WMin*HMin.
func (c *Circuit) MinArea() int64 {
	var a int64
	for _, b := range c.Blocks {
		a += int64(b.WMin) * int64(b.HMin)
	}
	return a
}

// DimensionSpaceLog2Volume returns log2 of the number of distinct dimension
// vectors (w_1,h_1,...,w_N,h_N), i.e. log2 of the paper's full (w,h) search
// space size. Returned in log space because the raw product overflows for
// large circuits.
func (c *Circuit) DimensionSpaceLog2Volume() float64 {
	var lg float64
	for _, b := range c.Blocks {
		lg += log2i(b.WRange().Len()) + log2i(b.HRange().Len())
	}
	return lg
}

// BlockIndex returns the index of the named block, or -1 if absent.
func (c *Circuit) BlockIndex(name string) int {
	for i, b := range c.Blocks {
		if b.Name == name {
			return i
		}
	}
	return -1
}

func log2i(n int) float64 {
	if n <= 0 {
		return 0
	}
	// math.Log2 avoided to keep this file free of float subtleties in hot
	// paths; precision is irrelevant for a reporting metric.
	v := float64(n)
	lg := 0.0
	for v >= 2 {
		v /= 2
		lg++
	}
	// linear interpolation of the fractional bit
	return lg + (v - 1)
}
