// Package cost evaluates placement quality. The paper's cost calculator
// (§3.2.2) charges "wire-lengths and area of that proposed design" and is
// explicitly customizable; this package provides the default weighted
// HPWL + bounding-box-area evaluator plus the Evaluator interface hooks the
// rest of the system composes against.
package cost

import (
	"fmt"

	"mps/internal/geom"
	"mps/internal/netlist"
)

// Layout is the geometric snapshot an Evaluator scores: one circuit, one set
// of block anchors and one set of current dimensions, inside a floorplan.
type Layout struct {
	Circuit *netlist.Circuit
	// X, Y hold the bottom-left anchor of each block.
	X, Y []int
	// W, H hold the current dimensions of each block.
	W, H []int
	// Floorplan bounds the layout; used for pad-stub wire estimation.
	Floorplan geom.Rect
}

// BlockRect returns the rectangle of block i at its current dimensions.
func (l *Layout) BlockRect(i int) geom.Rect {
	return geom.NewRect(l.X[i], l.Y[i], l.W[i], l.H[i])
}

// Validate checks the slices are consistently sized.
func (l *Layout) Validate() error {
	n := l.Circuit.N()
	if len(l.X) != n || len(l.Y) != n || len(l.W) != n || len(l.H) != n {
		return fmt.Errorf("cost: layout slices sized %d/%d/%d/%d, want %d",
			len(l.X), len(l.Y), len(l.W), len(l.H), n)
	}
	return nil
}

// Evaluator scores a layout; lower is better. Implementations must be pure:
// the same layout always gets the same cost.
type Evaluator interface {
	Cost(l *Layout) float64
}

// EvaluatorFunc adapts a function to the Evaluator interface.
type EvaluatorFunc func(l *Layout) float64

// Cost implements Evaluator.
func (f EvaluatorFunc) Cost(l *Layout) float64 { return f(l) }

// DefaultWeights is the default evaluator, the balanced objective vector:
//
//	cost = 1.0  * Σ_nets weight * HPWL(net)
//	     + 0.05 * area(bounding box of all blocks)
//
// Single-pin terminal nets (pad stubs) are charged the Manhattan distance
// from the pin to the nearest floorplan edge, modelling the wire that must
// reach the chip boundary. The weights balance the two terms so that on
// typical benchmarks neither dominates: wire length counts per unit, area
// is scaled down since it grows quadratically with floorplan size.
var DefaultWeights = BalancedWeights

// WireLength returns the weighted total wire length of the layout:
// HPWL per multi-pin net plus boundary distance per pad-stub net.
// The result is rounded to an integer number of layout units.
func WireLength(l *Layout) int64 {
	var total float64
	for _, net := range l.Circuit.Nets {
		w := net.Weight
		if w == 0 {
			w = 1
		}
		total += w * float64(netLength(l, net))
	}
	return int64(total + 0.5)
}

// netLength returns the unweighted length of one net: the boundary
// distance for a pad stub, zero for any other single-pin net, HPWL for a
// multi-pin net. HPWL is taken over running extremes rather than a
// materialized point slice, so scoring a layout allocates nothing.
func netLength(l *Layout, net *netlist.Net) int {
	if len(net.Pins) == 0 {
		return 0
	}
	p := net.Pins[0]
	pt := p.Position(l.X[p.Block], l.Y[p.Block], l.W[p.Block], l.H[p.Block])
	if len(net.Pins) == 1 {
		if p.IsTerminal {
			return distToBoundary(pt, l.Floorplan)
		}
		return 0
	}
	minX, maxX := pt.X, pt.X
	minY, maxY := pt.Y, pt.Y
	for _, p := range net.Pins[1:] {
		pt := p.Position(l.X[p.Block], l.Y[p.Block], l.W[p.Block], l.H[p.Block])
		minX, maxX = min(minX, pt.X), max(maxX, pt.X)
		minY, maxY = min(minY, pt.Y), max(maxY, pt.Y)
	}
	return (maxX - minX) + (maxY - minY)
}

// NetLengths returns the unweighted length of every net, indexed like
// Circuit.Nets — used by reporting and the synthesis parasitic model.
func NetLengths(l *Layout) []int {
	out := make([]int, len(l.Circuit.Nets))
	for i, net := range l.Circuit.Nets {
		out[i] = netLength(l, net)
	}
	return out
}

// UsedArea returns the area of the bounding box of all blocks.
func UsedArea(l *Layout) int64 {
	var bb geom.Rect
	for i := range l.Circuit.Blocks {
		bb = bb.Union(l.BlockRect(i))
	}
	return bb.Area()
}

// DeadSpace returns the bounding-box area not covered by any block,
// a packing-quality metric used in reports.
func DeadSpace(l *Layout) int64 {
	var blocks int64
	for i := range l.Circuit.Blocks {
		blocks += l.BlockRect(i).Area()
	}
	return UsedArea(l) - blocks
}

// distToBoundary returns the Manhattan distance from p to the nearest edge
// of the floorplan. Points outside the floorplan are distance 0.
func distToBoundary(p geom.Point, fp geom.Rect) int {
	if fp.Empty() || !fp.ContainsPoint(p) {
		return 0
	}
	d := p.X - fp.X0
	if r := fp.X1 - p.X; r < d {
		d = r
	}
	if b := p.Y - fp.Y0; b < d {
		d = b
	}
	if t := fp.Y1 - p.Y; t < d {
		d = t
	}
	return d
}
