package cost

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
// circuit). The zero value is ready for Start, and a Scorer reuses its
// buffers across Starts.
type Scorer struct {
	w     Weights
	l     *Layout
	nets  [][]int // per block, the nets with a pin on it
	buf   []int   // backs lens and saved
	lens  []int   // current length of every net
	saved []int   // the last Move's replaced lengths, in nets[moved] order
	moved int     // the block of the last Move, -1 when none is undoable
}

// Start implements Incremental for the weighted objective.
func (w Weights) Start(sc *Scorer, l *Layout) float64 {
	m := len(l.Circuit.Nets)
	if cap(sc.buf) < 2*m {
		sc.buf = make([]int, 2*m)
	}
	sc.lens, sc.saved = sc.buf[:m], sc.buf[m:2*m]
	sc.w, sc.l, sc.nets, sc.moved = w.Canonical(), l, l.Circuit.BlockNets(), -1
	for k, net := range l.Circuit.Nets {
		sc.lens[k] = netLength(l, net)
	}
	return sc.cost()
}

// Move rescores the layout after block b's width or height changed,
// measuring only b's nets again, and returns its cost: bit-identical to
// the Cost of the evaluator that started sc.
func (sc *Scorer) Move(b int) float64 {
	for k, net := range sc.nets[b] {
		sc.saved[k] = sc.lens[net]
		sc.lens[net] = netLength(sc.l, sc.l.Circuit.Nets[net])
	}
	sc.moved = b
	return sc.cost()
}

// Undo restores the net lengths from before the last Move; the caller
// restores the moved block's dimension.
func (sc *Scorer) Undo() {
	if sc.moved < 0 {
		return
	}
	for k, net := range sc.nets[sc.moved] {
		sc.lens[net] = sc.saved[k]
	}
	sc.moved = -1
}

// cost evaluates Weights.Cost's expression over the kept lengths. The
// weighted wire total is summed over every net in net order, as
// WireLength sums it, and never adjusted incrementally, so the float
// result carries the same bits.
func (sc *Scorer) cost() float64 {
	var total float64
	for k, net := range sc.l.Circuit.Nets {
		w := net.Weight
		if w == 0 {
			w = 1
		}
		total += w * float64(sc.lens[k])
	}
	bb := boundingBox(sc.l)
	c := sc.w.Wire*float64(int64(total+0.5)) + sc.w.Area*float64(bb.Area())
	if sc.w.Aspect != 0 {
		c += sc.w.Aspect * float64(AspectDeviation(bb.W(), bb.H()))
	}
	return c
}
