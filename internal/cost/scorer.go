package cost

import (
	"math"
	"slices"

	"mps/internal/geom"
)

// Incremental is the optional extension of Evaluator for annealers that
// change one block's width or height per move, as the BDIO does: a Scorer
// started by Start rescores a move by measuring only the nets with a pin
// on the moved block. Evaluators without it are scored through Cost on
// every move.
type Incremental interface {
	Evaluator
	// Start scores l in full into sc and returns its cost, bit-identical
	// to Cost(l). sc keeps l and reads its slices on every later Move.
	Start(sc *Scorer, l *Layout) float64
}

// Scorer is the state of one incremental scoring run: the current length
// of every net, the lengths the last Move replaced, and the circuit's
// per-block net incidence (netlist.Circuit.BlockNets, built once per
// circuit). It also keeps the weighted wire total as running state, an
// integer in units of 2^-e when every net weight is a multiple of 2^-e
// (see dyadicUnits), so a Move reads it instead of rescanning every net;
// otherwise cost sums the nets in order. Moves change widths and heights
// only, so Start also takes the bounding box's bottom-left corner once
// (see box). The zero value is ready for Start, and a Scorer reuses its
// buffers across Starts.
type Scorer struct {
	w     Weights
	l     *Layout
	nets  [][]int // per block, the nets with a pin on it
	buf   []int   // backs lens, saved and units
	lens  []int   // current length of every net
	saved []int   // the last Move's replaced lengths, in nets[moved] order
	moved int     // the block of the last Move, -1 when none is undoable

	// Wire total: when fixed, units[k] is net k's weight in units of
	// scale, wire is Σ units[k]·lens[k] (wrapping, and then never read,
	// while long > 0) and long counts the nets whose length is outside
	// [0, 2^31). When not fixed, units and wire are never read.
	fixed bool
	scale float64
	units []int
	wire  int64
	long  int

	// x0, y0 is the smallest block X and Y: the bounding box's
	// bottom-left corner while every block rect is non-empty.
	x0, y0 int

	// The wire totals before the last Move.
	savedWire int64
	savedLong int
}

// Start implements Incremental for the weighted objective.
func (w Weights) Start(sc *Scorer, l *Layout) float64 {
	m, n := len(l.Circuit.Nets), len(l.X)
	if cap(sc.buf) < 3*m {
		sc.buf = make([]int, 3*m)
	}
	buf := sc.buf[:3*m]
	sc.lens, sc.saved, sc.units = buf[:m], buf[m:2*m], buf[2*m:]
	sc.w, sc.l, sc.nets, sc.moved = w.Canonical(), l, l.Circuit.BlockNets(), -1
	sc.fixed, sc.scale = dyadicUnits(l, sc.units)
	sc.wire, sc.long = 0, 0
	for k, net := range l.Circuit.Nets {
		d := netLength(l, net)
		sc.lens[k] = d
		sc.wire += int64(sc.units[k]) * int64(d)
		sc.long += longNet(d)
	}
	sc.x0, sc.y0 = 0, 0
	if n > 0 {
		sc.x0, sc.y0 = slices.Min(l.X), slices.Min(l.Y)
	}
	return sc.cost()
}

// Move rescores the layout after block b's width or height changed,
// measuring only b's nets again, and returns its cost: bit-identical to
// the Cost of the evaluator that started sc.
func (sc *Scorer) Move(b int) float64 {
	sc.savedWire, sc.savedLong = sc.wire, sc.long
	for k, net := range sc.nets[b] {
		old, d := sc.lens[net], netLength(sc.l, sc.l.Circuit.Nets[net])
		sc.saved[k], sc.lens[net] = old, d
		sc.wire += int64(sc.units[net]) * (int64(d) - int64(old))
		sc.long += longNet(d) - longNet(old)
	}
	sc.moved = b
	return sc.cost()
}

// Undo restores the net lengths and totals from before the last Move;
// the caller restores the moved block's dimension.
func (sc *Scorer) Undo() {
	b := sc.moved
	if b < 0 {
		return
	}
	for k, net := range sc.nets[b] {
		sc.lens[net] = sc.saved[k]
	}
	sc.wire, sc.long = sc.savedWire, sc.savedLong
	sc.moved = -1
}

// cost evaluates Weights.Cost's expression over the kept state. The
// weighted wire total is WireLength's in-order float sum: read from the
// integer total when that is exact (see dyadicUnits), else summed over
// every net in net order as WireLength sums it. The bounding box is
// boundingBox's (see box).
func (sc *Scorer) cost() float64 {
	var total float64
	if sc.fixed && sc.long == 0 && uint64(sc.wire) < 1<<53 {
		total = float64(sc.wire) * sc.scale
	} else {
		for k, net := range sc.l.Circuit.Nets {
			w := net.Weight
			if w == 0 {
				w = 1
			}
			total += w * float64(sc.lens[k])
		}
	}
	bb := sc.box()
	c := sc.w.Wire*float64(int64(total+0.5)) + sc.w.Area*float64(bb.Area())
	if sc.w.Aspect != 0 {
		c += sc.w.Aspect * float64(AspectDeviation(bb.W(), bb.H()))
	}
	return c
}

// box returns boundingBox(sc.l). While every block rect is non-empty,
// Rect.Union skips none, so the box spans the kept bottom-left corner and
// the largest right and top edges; otherwise it is the full scan.
func (sc *Scorer) box() geom.Rect {
	l := sc.l
	bb := geom.Rect{X0: sc.x0, Y0: sc.y0, X1: sc.x0, Y1: sc.y0}
	for i, x := range l.X {
		if l.W[i] <= 0 || l.H[i] <= 0 {
			return boundingBox(l)
		}
		bb.X1, bb.Y1 = max(bb.X1, x+l.W[i]), max(bb.Y1, l.Y[i]+l.H[i])
	}
	return bb
}

// maxUnitExp and maxUnit bound the fixed-point wire total: a net weight
// takes the integer path when it is m·2^-e with e ≤ maxUnitExp, and no
// weight may exceed maxUnit units. With lengths below 2^31 and fewer than
// 2^16 nets, the integer total cannot overflow.
const (
	maxUnitExp = 16
	maxUnit    = 1 << 16
)

// dyadicUnits fills units[k] with net k's weight (0 meaning 1, as in
// WireLength) in units of scale = 2^-e, the smallest e that makes every
// weight an integer, and reports whether the integer total is usable.
// Registry weights (2, 1, 0.5, 0.25) give e = 2.
//
// Why the integer total is exact: every term w·len is then
// units·len·2^-e, and every partial sum of the non-negative terms is at
// most the total. While the total is below 2^53 units, each term and
// each partial sum is an integer multiple of 2^-e below 2^53·2^-e, so
// exactly representable, and WireLength's in-order float loop rounds
// nothing: it returns exactly wire·2^-e. A non-dyadic weight (0.1, 1/3),
// a negative or huge one, or too many nets leaves the loop in charge,
// and units unused.
func dyadicUnits(l *Layout, units []int) (ok bool, scale float64) {
	if len(units) >= 1<<16 {
		return false, 0
	}
	e := 0
	for _, net := range l.Circuit.Nets {
		w := net.Weight
		if w == 0 {
			w = 1
		}
		if !(w > 0) {
			return false, 0
		}
		for v := math.Ldexp(w, e); v != math.Trunc(v); v = math.Ldexp(w, e) {
			if e++; e > maxUnitExp {
				return false, 0
			}
		}
	}
	for k, net := range l.Circuit.Nets {
		w := net.Weight
		if w == 0 {
			w = 1
		}
		v := math.Ldexp(w, e)
		if v > maxUnit {
			return false, 0
		}
		units[k] = int(v)
	}
	return true, math.Ldexp(1, -e)
}

// longNet reports (as 0 or 1) whether a net length falls outside the
// integer total's range [0, 2^31).
func longNet(d int) int {
	if uint(d) < 1<<31 {
		return 0
	}
	return 1
}
