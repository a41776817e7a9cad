package core

// The cost terms behind best-of-K portfolio routing: the per-objective
// cost vector of instantiating a covering slot, computed straight off the
// compiled int32 anchor tables without copying anchors out or allocating.
// The terms mirror cost.Vector and cost.WireLength term for term (pinned
// by TestCoveredTermsMatchesCostVector). A router takes each member's
// covering slot from one MergedIndex.Cover walk, scores only the members
// that cover, and answers from the winner's slot with AnswerInto.

import (
	"math"

	"mps/internal/cost"
	"mps/internal/netlist"
)

// Terms reports the cost terms of answering (ws, hs) from slot, a slot
// covering those dimensions. Area, Dead and Aspect are always computed;
// Wire, the only term that walks the net list, only when wire is true.
func (cs *CompiledStructure) Terms(slot int, ws, hs []int, wire bool) (t cost.Terms) {
	off := slot * cs.n
	minX, minY := int64(math.MaxInt64), int64(math.MaxInt64)
	maxX, maxY := int64(math.MinInt64), int64(math.MinInt64)
	var blocks int64
	for i := 0; i < cs.n; i++ {
		x, y := int64(cs.xs[off+i]), int64(cs.ys[off+i])
		w, h := int64(ws[i]), int64(hs[i])
		minX = min(minX, x)
		minY = min(minY, y)
		maxX = max(maxX, x+w)
		maxY = max(maxY, y+h)
		blocks += w * h
	}
	t.Area = (maxX - minX) * (maxY - minY)
	t.Dead = t.Area - blocks
	t.Aspect = cost.AspectDeviation(int(maxX-minX), int(maxY-minY))
	if wire {
		// Weighted wire length, mirroring cost.WireLength: float
		// accumulation of per-net weights times integer net lengths,
		// rounded once at the end.
		var total float64
		for _, net := range cs.src.circuit.Nets {
			w := net.Weight
			if w == 0 {
				w = 1
			}
			total += w * float64(cs.coveredNetLength(off, net, ws, hs))
		}
		t.Wire = int64(total + 0.5)
	}
	return t
}

// coveredNetLength is cost.netLength over the compiled anchor tables:
// pad stubs charge the boundary distance, single-pin internal nets are
// free, multi-pin nets charge HPWL — computed in-place instead of
// materializing a point slice.
func (cs *CompiledStructure) coveredNetLength(off int, net *netlist.Net, ws, hs []int) int {
	if len(net.Pins) == 1 {
		p := net.Pins[0]
		pt := p.Position(int(cs.xs[off+p.Block]), int(cs.ys[off+p.Block]), ws[p.Block], hs[p.Block])
		if p.IsTerminal {
			return cost.BoundaryDist(pt, cs.src.fp)
		}
		return 0
	}
	if len(net.Pins) < 2 {
		return 0
	}
	p := net.Pins[0]
	pt := p.Position(int(cs.xs[off+p.Block]), int(cs.ys[off+p.Block]), ws[p.Block], hs[p.Block])
	minX, maxX := pt.X, pt.X
	minY, maxY := pt.Y, pt.Y
	for _, p := range net.Pins[1:] {
		pt := p.Position(int(cs.xs[off+p.Block]), int(cs.ys[off+p.Block]), ws[p.Block], hs[p.Block])
		if pt.X < minX {
			minX = pt.X
		}
		if pt.X > maxX {
			maxX = pt.X
		}
		if pt.Y < minY {
			minY = pt.Y
		}
		if pt.Y > maxY {
			maxY = pt.Y
		}
	}
	return (maxX - minX) + (maxY - minY)
}
