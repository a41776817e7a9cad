package placement

import (
	"math/rand"
	"reflect"
	"testing"

	"mps/internal/circuits"
	"mps/internal/geom"
	"mps/internal/netlist"
)

func smallCircuit() *netlist.Circuit {
	b := netlist.NewBuilder("small")
	b.Block("a", 4, 12, 4, 12)
	b.Block("b", 4, 10, 4, 10)
	b.Block("c", 3, 8, 3, 8)
	b.Net("n1", 1, netlist.P("a"), netlist.P("b"))
	b.Net("n2", 1, netlist.P("b"), netlist.P("c"))
	return b.MustBuild()
}

func TestNewStartsAtMinimumDims(t *testing.T) {
	c := smallCircuit()
	p := New(c)
	for i, blk := range c.Blocks {
		if p.WLo[i] != blk.WMin || p.WHi[i] != blk.WMin {
			t.Errorf("block %d width interval [%d,%d], want collapsed at %d",
				i, p.WLo[i], p.WHi[i], blk.WMin)
		}
		if p.HLo[i] != blk.HMin || p.HHi[i] != blk.HMin {
			t.Errorf("block %d height interval [%d,%d], want collapsed at %d",
				i, p.HLo[i], p.HHi[i], blk.HMin)
		}
	}
	if p.ID != -1 {
		t.Errorf("new placement ID = %d, want -1 (unstored)", p.ID)
	}
}

func TestCloneIsDeep(t *testing.T) {
	c := smallCircuit()
	p := New(c)
	p.BestW = []int{4, 4, 3}
	p.BestH = []int{4, 4, 3}
	q := p.Clone()
	q.X[0] = 99
	q.WHi[1] = 99
	q.BestW[2] = 99
	if p.X[0] == 99 || p.WHi[1] == 99 || p.BestW[2] == 99 {
		t.Error("Clone shares backing arrays with original")
	}
}

// TestCloneOneArray: a copy costs the struct and one array, and its
// slices are capped, so appending to one never writes into the next.
func TestCloneOneArray(t *testing.T) {
	c := circuits.MustByName("TwoStageOpamp") // has margins
	p := New(c)
	p.BestW, p.BestH = make([]int, c.N()), make([]int, c.N())
	if allocs := testing.AllocsPerRun(100, func() { p.Clone() }); allocs > 2 {
		t.Errorf("Clone makes %v allocations, want at most 2", allocs)
	}
	q := p.Clone()
	wantY := append([]int(nil), q.Y...)
	q.X = append(q.X, 7, 7, 7)
	if !reflect.DeepEqual(q.Y, wantY) {
		t.Errorf("appending to a copy's X changed its Y: %v, want %v", q.Y, wantY)
	}
	if q.clearance(0, 1) != p.clearance(0, 1) || (p.BestW != nil) != (q.BestW != nil) {
		t.Error("Clone lost margins or best dimensions")
	}
	if r := (&Placement{X: []int{1}}).Clone(); r.BestW != nil || r.margins != nil || len(r.X) != 1 {
		t.Errorf("Clone of a placement without best dimensions or margins: %+v", r)
	}
}

func TestRandomLegalIsLegal(t *testing.T) {
	c := circuits.MustByName("TwoStageOpamp")
	fp := DefaultFloorplan(c)
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 30; trial++ {
		p, err := RandomLegal(c, fp, rng)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.CheckLegal(fp); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestRandomLegalTinyFloorplanErrors(t *testing.T) {
	c := smallCircuit()
	fp := geom.NewRect(0, 0, 3, 3) // smaller than any block
	rng := rand.New(rand.NewSource(1))
	if _, err := RandomLegal(c, fp, rng); err == nil {
		t.Error("impossible floorplan should error")
	}
}

func TestRandomLegalPackedFloorplan(t *testing.T) {
	// Floorplan just big enough for the three blocks at min dims in a row:
	// random placement will collide often and must fall back to scanning.
	c := smallCircuit()
	fp := geom.NewRect(0, 0, 12, 12)
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 20; trial++ {
		p, err := RandomLegal(c, fp, rng)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// Legality at min dims: max interval == min dims here.
		if err := p.CheckLegal(fp); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestExpandKeepsLegalityAndGrows(t *testing.T) {
	c := circuits.MustByName("Mixer")
	fp := DefaultFloorplan(c)
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		p, err := RandomLegal(c, fp, rng)
		if err != nil {
			t.Fatal(err)
		}
		p.Expand(c, fp, 1)
		if err := p.CheckLegal(fp); err != nil {
			t.Fatalf("trial %d after expand: %v", trial, err)
		}
		if err := p.CheckIntervalsWithin(c); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		grew := false
		for i, blk := range c.Blocks {
			if p.WHi[i] > blk.WMin || p.HHi[i] > blk.HMin {
				grew = true
			}
			if p.WLo[i] != blk.WMin || p.HLo[i] != blk.HMin {
				t.Fatalf("expand must not move lower bounds (block %d)", i)
			}
		}
		if !grew {
			t.Errorf("trial %d: expansion grew nothing in a spacious floorplan", trial)
		}
	}
}

// TestExpandMaximality verifies the stopping condition: after Expand, every
// block is blocked in each dimension by its designer max, the floorplan, or
// a neighbor — one more step must always be illegal or a no-op.
func TestExpandMaximality(t *testing.T) {
	c := circuits.MustByName("circ06")
	fp := DefaultFloorplan(c)
	rng := rand.New(rand.NewSource(4))
	p, err := RandomLegal(c, fp, rng)
	if err != nil {
		t.Fatal(err)
	}
	p.Expand(c, fp, 1)
	for i, blk := range c.Blocks {
		if p.WHi[i] < blk.WMax && p.fitsAt(i, p.WHi[i]+1, p.HHi[i], fp) {
			t.Errorf("block %d width %d could still expand", i, p.WHi[i])
		}
		if p.HHi[i] < blk.HMax && p.fitsAt(i, p.WHi[i], p.HHi[i]+1, fp) {
			t.Errorf("block %d height %d could still expand", i, p.HHi[i])
		}
	}
}

func TestExpandRespectsDesignerMax(t *testing.T) {
	// One block alone in a huge floorplan must stop exactly at its max.
	b := netlist.NewBuilder("solo")
	b.Block("a", 4, 9, 4, 7)
	b.Net("n", 1, netlist.T("a", 0, 0), netlist.T("a", 1, 1))
	c := b.MustBuild()
	fp := geom.NewRect(0, 0, 1000, 1000)
	p := New(c)
	p.Expand(c, fp, 1)
	if p.WHi[0] != 9 || p.HHi[0] != 7 {
		t.Errorf("expanded to %dx%d, want designer max 9x7", p.WHi[0], p.HHi[0])
	}
}

func TestExpandStepLargerThanOne(t *testing.T) {
	c := smallCircuit()
	fp := DefaultFloorplan(c)
	rng := rand.New(rand.NewSource(6))
	p, err := RandomLegal(c, fp, rng)
	if err != nil {
		t.Fatal(err)
	}
	p.Expand(c, fp, 3)
	if err := p.CheckLegal(fp); err != nil {
		t.Fatal(err)
	}
	if err := p.CheckIntervalsWithin(c); err != nil {
		t.Fatal(err)
	}
}

func TestPerturbStaysLegal(t *testing.T) {
	c := circuits.MustByName("SingleEndedOpamp")
	fp := DefaultFloorplan(c)
	rng := rand.New(rand.NewSource(7))
	p, err := RandomLegal(c, fp, rng)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		p.Perturb(c, fp, rng, 0.3, 40)
		if err := p.CheckLegal(fp); err != nil {
			t.Fatalf("perturb %d broke legality: %v", i, err)
		}
	}
}

func TestPerturbMovesSomething(t *testing.T) {
	c := circuits.MustByName("Mixer")
	fp := DefaultFloorplan(c)
	rng := rand.New(rand.NewSource(8))
	p, err := RandomLegal(c, fp, rng)
	if err != nil {
		t.Fatal(err)
	}
	orig := p.Clone()
	moved := false
	for i := 0; i < 10 && !moved; i++ {
		p.Perturb(c, fp, rng, 0.5, 30)
		for j := range p.X {
			if p.X[j] != orig.X[j] || p.Y[j] != orig.Y[j] {
				moved = true
			}
		}
	}
	if !moved {
		t.Error("ten perturbations moved no block")
	}
}

func TestWrapToroidal(t *testing.T) {
	cases := []struct{ v, lo, hi, want int }{
		{5, 0, 9, 5},
		{12, 0, 9, 2}, // wraps past hi
		{-3, 0, 9, 7}, // wraps below lo
		{10, 0, 9, 0}, // exactly one past
		{25, 3, 7, 5}, // offset range: span 5, (25-3)%5=2 -> 5
	}
	for _, tc := range cases {
		if got := wrap(tc.v, tc.lo, tc.hi); got != tc.want {
			t.Errorf("wrap(%d,%d,%d) = %d, want %d", tc.v, tc.lo, tc.hi, got, tc.want)
		}
	}
}

func TestCoversAndBoxOverlaps(t *testing.T) {
	c := smallCircuit()
	p := New(c)
	p.WHi = []int{8, 8, 6}
	p.HHi = []int{8, 8, 6}

	if !p.Covers([]int{4, 4, 3}, []int{4, 4, 3}) {
		t.Error("Covers should accept the min corner")
	}
	if !p.Covers([]int{8, 8, 6}, []int{8, 8, 6}) {
		t.Error("Covers should accept the max corner")
	}
	if p.Covers([]int{9, 4, 3}, []int{4, 4, 3}) {
		t.Error("Covers should reject out-of-interval width")
	}

	q := p.Clone()
	if !p.BoxOverlaps(q) {
		t.Error("identical boxes must overlap")
	}
	// Push q's width interval of block 0 past p's.
	q.WLo[0], q.WHi[0] = 9, 12
	if p.BoxOverlaps(q) {
		t.Error("disjoint in one row means boxes must not overlap")
	}
}

func TestBoxEmptyAndVolume(t *testing.T) {
	c := smallCircuit()
	p := New(c)
	if p.BoxEmpty() {
		t.Error("point box is not empty")
	}
	if got := p.Log2BoxVolume(); got != 0 {
		t.Errorf("point box volume log2 = %g, want 0", got)
	}
	p.WHi[0] = p.WLo[0] + 3 // 4 values
	p.HHi[0] = p.HLo[0] + 1 // 2 values
	if got := p.Log2BoxVolume(); got != 3 {
		t.Errorf("log2 volume = %g, want 3 (4*2=8)", got)
	}
	p.WLo[1] = p.WHi[1] + 1
	if !p.BoxEmpty() {
		t.Error("inverted interval should make box empty")
	}
}

func TestCheckLegalDetectsViolations(t *testing.T) {
	c := smallCircuit()
	fp := geom.NewRect(0, 0, 100, 100)
	p := New(c)
	p.X = []int{0, 2, 50}
	p.Y = []int{0, 2, 50}
	if err := p.CheckLegal(fp); err == nil {
		t.Error("overlapping blocks should fail CheckLegal")
	}
	p.X = []int{0, 20, 98}
	p.Y = []int{0, 20, 98}
	if err := p.CheckLegal(fp); err == nil {
		t.Error("out-of-bounds block should fail CheckLegal")
	}
}

func TestCheckIntervalsWithinDetectsViolations(t *testing.T) {
	c := smallCircuit()
	p := New(c)
	p.WHi[0] = c.Blocks[0].WMax + 5
	if err := p.CheckIntervalsWithin(c); err == nil {
		t.Error("interval beyond designer max should fail")
	}
}

func TestSwapBlocks(t *testing.T) {
	c := smallCircuit()
	fp := geom.NewRect(0, 0, 100, 100)
	p := New(c)
	p.X = []int{0, 30, 60}
	p.Y = []int{0, 30, 60}
	if !p.SwapBlocks(c, fp, 0, 1) {
		t.Fatal("legal swap rejected")
	}
	if p.X[0] != 30 || p.X[1] != 0 {
		t.Error("swap did not exchange anchors")
	}
	// A swap that pushes a big block out of bounds must be rolled back.
	p2 := New(c)
	p2.X = []int{0, 97, 50}
	p2.Y = []int{0, 97, 50}
	// block 0 has WMin 4: at (97,97) it would exceed the 100-wide floorplan.
	if p2.SwapBlocks(c, fp, 0, 1) {
		t.Error("out-of-bounds swap accepted")
	}
	if p2.X[0] != 0 || p2.X[1] != 97 {
		t.Error("rejected swap did not roll back")
	}
}

func TestDefaultFloorplanFitsWorstBlock(t *testing.T) {
	for _, name := range circuits.Names() {
		c := circuits.MustByName(name)
		fp := DefaultFloorplan(c)
		for _, b := range c.Blocks {
			if b.WMax > fp.W() || b.HMax > fp.H() {
				t.Errorf("%s: floorplan %v cannot hold block %s at max", name, fp, b.Name)
			}
		}
		if fp.Area() < c.MaxArea() {
			t.Errorf("%s: floorplan area %d below total max block area %d",
				name, fp.Area(), c.MaxArea())
		}
	}
}

func TestResetToMin(t *testing.T) {
	c := smallCircuit()
	fp := DefaultFloorplan(c)
	rng := rand.New(rand.NewSource(9))
	p, err := RandomLegal(c, fp, rng)
	if err != nil {
		t.Fatal(err)
	}
	p.Expand(c, fp, 1)
	p.AvgCost, p.BestCost = 5, 3
	p.BestW = []int{4, 4, 3}
	p.ResetToMin(c)
	for i, blk := range c.Blocks {
		if p.WHi[i] != blk.WMin || p.HHi[i] != blk.HMin {
			t.Errorf("block %d not reset to min", i)
		}
	}
	if p.AvgCost != 0 || p.BestCost != 0 || p.BestW != nil {
		t.Error("costs not cleared by ResetToMin")
	}
}
