package core

// The covering probe behind best-of-K portfolio routing: the query's
// covering slot plus the per-objective cost vector of instantiating it,
// computed straight off the compiled int32 anchor tables without copying
// anchors out or allocating. The terms mirror cost.Vector and
// cost.WireLength term for term (pinned by
// TestCoveredTermsMatchesCostVector). AnswerInto then answers from the
// same slot, so a routed query walks each member's index once.

import (
	"math"

	"mps/internal/cost"
	"mps/internal/netlist"
)

// Probe runs the query's one index walk and reports the covering slot with
// its cost terms: slot -1 (zero terms, nil error) when no stored placement
// covers the vector, or the dimension or eq. 5 error. Area, Dead and
// Aspect are always computed; Wire, the only term that walks the net list,
// only when wire is true. The backup is never consulted — hand the slot to
// AnswerInto for the answer.
func (cs *CompiledStructure) Probe(ws, hs []int, wire bool) (slot int, t cost.Terms, err error) {
	slot, err = cs.cover(ws, hs)
	if slot < 0 {
		return -1, cost.Terms{}, err
	}
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
	return slot, t, nil
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
