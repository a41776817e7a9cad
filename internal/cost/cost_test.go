package cost

import (
	"math/rand"
	"testing"

	"mps/internal/circuits"
	"mps/internal/geom"
	"mps/internal/netlist"
)

// twoBlockLayout builds a minimal two-block circuit with one connecting net
// and returns a layout with the blocks at the given anchors.
func twoBlockLayout(x0, y0, x1, y1 int) *Layout {
	b := netlist.NewBuilder("pair")
	b.Block("a", 4, 4, 4, 4)
	b.Block("b", 4, 4, 4, 4)
	b.Net("n", 1, netlist.P("a"), netlist.P("b"))
	c := b.MustBuild()
	return &Layout{
		Circuit:   c,
		X:         []int{x0, x1},
		Y:         []int{y0, y1},
		W:         []int{4, 4},
		H:         []int{4, 4},
		Floorplan: geom.NewRect(0, 0, 100, 100),
	}
}

func TestWireLengthTwoBlocks(t *testing.T) {
	l := twoBlockLayout(0, 0, 10, 0)
	// Pin centers: (2,2) and (12,2) -> HPWL = 10.
	if got := WireLength(l); got != 10 {
		t.Errorf("WireLength = %d, want 10", got)
	}
}

func TestWireLengthMovesWithBlocks(t *testing.T) {
	near := WireLength(twoBlockLayout(0, 0, 6, 0))
	far := WireLength(twoBlockLayout(0, 0, 60, 0))
	if far <= near {
		t.Errorf("moving blocks apart must raise wire length: near=%d far=%d", near, far)
	}
}

func TestWireLengthNetWeight(t *testing.T) {
	l := twoBlockLayout(0, 0, 10, 0)
	l.Circuit.Nets[0].Weight = 3
	if got := WireLength(l); got != 30 {
		t.Errorf("weighted WireLength = %d, want 30", got)
	}
}

func TestPadStubChargesBoundaryDistance(t *testing.T) {
	b := netlist.NewBuilder("stub")
	b.Block("a", 4, 4, 4, 4)
	b.Net("pad", 1, netlist.T("a", 0.5, 0.5))
	c := b.MustBuild()
	center := &Layout{
		Circuit: c, X: []int{48}, Y: []int{48},
		W: []int{4}, H: []int{4},
		Floorplan: geom.NewRect(0, 0, 100, 100),
	}
	edge := &Layout{
		Circuit: c, X: []int{0}, Y: []int{48},
		W: []int{4}, H: []int{4},
		Floorplan: geom.NewRect(0, 0, 100, 100),
	}
	if WireLength(center) <= WireLength(edge) {
		t.Errorf("pad stub at center (%d) should cost more than at edge (%d)",
			WireLength(center), WireLength(edge))
	}
}

func TestSinglePinInternalNetIsFree(t *testing.T) {
	b := netlist.NewBuilder("free")
	b.Block("a", 4, 4, 4, 4)
	b.Block("z", 4, 4, 4, 4)
	b.Net("n", 1, netlist.P("a"), netlist.P("z"))
	c := b.MustBuild()
	// Force a single-pin non-terminal net directly (Validate would reject it;
	// the evaluator must still be defensive).
	c.Nets = append(c.Nets, &netlist.Net{
		Name: "solo", Weight: 1,
		Pins: []netlist.Pin{{Block: 0, FracX: 0.5, FracY: 0.5}},
	})
	l := &Layout{
		Circuit: c, X: []int{10, 20}, Y: []int{10, 10},
		W: []int{4, 4}, H: []int{4, 4},
		Floorplan: geom.NewRect(0, 0, 100, 100),
	}
	lengths := NetLengths(l)
	if lengths[1] != 0 {
		t.Errorf("single-pin internal net length = %d, want 0", lengths[1])
	}
}

func TestUsedAreaAndDeadSpace(t *testing.T) {
	l := twoBlockLayout(0, 0, 6, 0) // blocks [0,4) and [6,10) x [0,4)
	if got := UsedArea(l); got != 40 {
		t.Errorf("UsedArea = %d, want 40 (10x4 bounding box)", got)
	}
	if got := DeadSpace(l); got != 8 {
		t.Errorf("DeadSpace = %d, want 8 (2x4 gap)", got)
	}
}

func TestWeightedCostCombinesTerms(t *testing.T) {
	l := twoBlockLayout(0, 0, 10, 0)
	wire := float64(WireLength(l))
	area := float64(UsedArea(l))
	ev := Weights{Wire: 2, Area: 0.5}
	want := 2*wire + 0.5*area
	if got := ev.Cost(l); got != want {
		t.Errorf("Cost = %g, want %g", got, want)
	}
}

func TestWeightedCostMonotoneInSpread(t *testing.T) {
	ev := DefaultWeights
	compact := ev.Cost(twoBlockLayout(0, 0, 4, 0))
	spread := ev.Cost(twoBlockLayout(0, 0, 50, 0))
	if compact >= spread {
		t.Errorf("compact layout (%g) should cost less than spread layout (%g)", compact, spread)
	}
}

func TestEvaluatorFunc(t *testing.T) {
	called := false
	ev := EvaluatorFunc(func(l *Layout) float64 { called = true; return 7 })
	if got := ev.Cost(nil); got != 7 || !called {
		t.Error("EvaluatorFunc did not delegate")
	}
}

func TestLayoutValidate(t *testing.T) {
	l := twoBlockLayout(0, 0, 10, 0)
	if err := l.Validate(); err != nil {
		t.Errorf("Validate() = %v, want nil", err)
	}
	l.W = l.W[:1]
	if err := l.Validate(); err == nil {
		t.Error("Validate() should fail on short slice")
	}
}

func TestDistToBoundary(t *testing.T) {
	fp := geom.NewRect(0, 0, 100, 50)
	tests := []struct {
		p    geom.Point
		want int
	}{
		{geom.Point{X: 50, Y: 25}, 25},  // center: nearest is top/bottom
		{geom.Point{X: 3, Y: 25}, 3},    // near left edge
		{geom.Point{X: 97, Y: 25}, 3},   // near right edge
		{geom.Point{X: 50, Y: 2}, 2},    // near bottom
		{geom.Point{X: 200, Y: 200}, 0}, // outside
	}
	for _, tc := range tests {
		if got := distToBoundary(tc.p, fp); got != tc.want {
			t.Errorf("distToBoundary(%v) = %d, want %d", tc.p, got, tc.want)
		}
	}
}

// TestCostDeterministic guards the purity requirement of Evaluator on a
// real benchmark with random layouts.
func TestCostDeterministic(t *testing.T) {
	c := circuits.MustByName("TwoStageOpamp")
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		n := c.N()
		l := &Layout{
			Circuit:   c,
			X:         make([]int, n),
			Y:         make([]int, n),
			W:         make([]int, n),
			H:         make([]int, n),
			Floorplan: geom.NewRect(0, 0, 500, 500),
		}
		for i, blk := range c.Blocks {
			l.X[i] = rng.Intn(400)
			l.Y[i] = rng.Intn(400)
			l.W[i] = blk.WMin + rng.Intn(blk.WMax-blk.WMin+1)
			l.H[i] = blk.HMin + rng.Intn(blk.HMax-blk.HMin+1)
		}
		a := DefaultWeights.Cost(l)
		b := DefaultWeights.Cost(l)
		if a != b {
			t.Fatalf("cost not deterministic: %g vs %g", a, b)
		}
		if a <= 0 {
			t.Fatalf("cost = %g, want positive for a real layout", a)
		}
	}
}

// netLengthReference is the point-slice netLength the running-extremes
// version replaced: geom.HPWL over every materialized pin position.
func netLengthReference(l *Layout, net *netlist.Net) int {
	if len(net.Pins) == 1 {
		p := net.Pins[0]
		pt := p.Position(l.X[p.Block], l.Y[p.Block], l.W[p.Block], l.H[p.Block])
		if p.IsTerminal {
			return distToBoundary(pt, l.Floorplan)
		}
		return 0
	}
	pts := make([]geom.Point, len(net.Pins))
	for i, p := range net.Pins {
		pts[i] = p.Position(l.X[p.Block], l.Y[p.Block], l.W[p.Block], l.H[p.Block])
	}
	return geom.HPWL(pts)
}

// TestNetLengthMatchesHPWLReference pins the allocation-free netLength to
// the point-slice reference, net by net, on random layouts of every
// registered circuit, and checks that scoring a layout allocates nothing.
func TestNetLengthMatchesHPWLReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, name := range circuits.Names() {
		for trial := 0; trial < 40; trial++ {
			l := randomLayout(name, rng)
			for k, net := range l.Circuit.Nets {
				if got, want := netLength(l, net), netLengthReference(l, net); got != want {
					t.Fatalf("%s trial %d net %d (%s): netLength = %d, reference %d", name, trial, k, net.Name, got, want)
				}
			}
		}
		l := randomLayout(name, rng)
		if allocs := testing.AllocsPerRun(20, func() { DefaultWeights.Cost(l) }); allocs != 0 {
			t.Errorf("%s: DefaultWeights.Cost allocates %v times per call, want 0", name, allocs)
		}
	}
}
