// Package placement defines the placement value type of the paper's eq. 2 —
// block coordinates plus per-block dimension validity intervals — and the
// geometric operations the generation algorithm needs: random legal
// placement selection, dimension expansion (§3.1.2), perturbation with
// toroidal wrap (§3.1.4), and legality checking.
//
// Blocks are anchored by their bottom-left corner and grow right/up as their
// dimensions increase, so a placement that is overlap-free
// with every block at its maximum interval dimensions is overlap-free for
// every dimension vector inside its intervals.
package placement

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"mps/internal/geom"
	"mps/internal/netlist"
)

// Placement is one stored placement p_j: coordinates, dimension validity
// intervals and the costs the BDIO attached to it.
type Placement struct {
	// ID is the placement's index in its multi-placement structure;
	// -1 until stored.
	ID int
	// X, Y hold the bottom-left anchor of each block.
	X, Y []int
	// WLo, WHi, HLo, HHi hold the inclusive dimension validity intervals
	// [wstart,wend] and [hstart,hend] per block.
	WLo, WHi []int
	HLo, HHi []int
	// AvgCost and BestCost are the BDIO's average and best cost (§3.2).
	AvgCost, BestCost float64
	// BestW, BestH record the dimension vector that achieved BestCost.
	BestW, BestH []int

	// margins caches the per-block design-rule halos of the circuit; nil
	// means all zero (placements built as struct literals, margin-free
	// circuits).
	margins []int
}

// New returns a placement for c with all anchors at the origin and all
// dimension intervals collapsed to the blocks' minimum dimensions, the
// state the paper's Placement Selector starts from.
func New(c *netlist.Circuit) *Placement {
	p := Make(c, 0, 0)
	for i, b := range c.Blocks {
		p.WLo[i], p.WHi[i] = b.WMin, b.WMin
		p.HLo[i], p.HHi[i] = b.HMin, b.HMin
	}
	return p
}

// Make returns a zeroed placement for c with ID -1: every anchor,
// interval and cost zero, BestW and BestH of nBestW and nBestH entries,
// and the circuit's per-block spacing halos attached so geometric checks
// enforce them. Its slices are cut from one array, as Clone's are.
func Make(c *netlist.Circuit, nBestW, nBestH int) *Placement {
	n, m := c.N(), 0
	if slices.ContainsFunc(c.Blocks, func(b *netlist.Block) bool { return b.Margin > 0 }) {
		m = n
	}
	p := &Placement{ID: -1}
	p.cut([9]int{n, n, n, n, n, n, nBestW, nBestH, m})
	for i := range p.margins {
		p.margins[i] = c.Blocks[i].Margin
	}
	return p
}

// slices returns the addresses of p's slice fields in the order cut lays
// them out.
func (p *Placement) slices() [9]*[]int {
	return [9]*[]int{&p.X, &p.Y, &p.WLo, &p.WHi, &p.HLo, &p.HHi, &p.BestW, &p.BestH, &p.margins}
}

// cut points p's slice fields at consecutive parts of one new zeroed
// array, field k at lens[k] entries capped at that length, so appending
// to one never writes into the next. A field of length 0 is nil.
func (p *Placement) cut(lens [9]int) {
	total := 0
	for _, l := range lens {
		total += l
	}
	buf := make([]int, total)
	for k, f := range p.slices() {
		*f = nil
		if l := lens[k]; l > 0 {
			*f, buf = buf[:l:l], buf[l:]
		}
	}
}

// marginAt returns block i's halo (0 when margins are not attached).
func (p *Placement) marginAt(i int) int {
	if p.margins == nil {
		return 0
	}
	return p.margins[i]
}

// clearance returns the required spacing between blocks i and j.
func (p *Placement) clearance(i, j int) int {
	mi, mj := p.marginAt(i), p.marginAt(j)
	if mi > mj {
		return mi
	}
	return mj
}

// inflate grows r by m on every side.
func inflate(r geom.Rect, m int) geom.Rect {
	return geom.Rect{X0: r.X0 - m, Y0: r.Y0 - m, X1: r.X1 + m, Y1: r.Y1 + m}
}

// N returns the number of blocks.
func (p *Placement) N() int { return len(p.X) }

// Clone returns a deep copy of p in two allocations: the struct and one
// array its slices are cut from (see cut; empty slices come back nil).
func (p *Placement) Clone() *Placement {
	q := &Placement{ID: p.ID, AvgCost: p.AvgCost, BestCost: p.BestCost}
	src := p.slices()
	var lens [9]int
	for k, f := range src {
		lens[k] = len(*f)
	}
	q.cut(lens)
	for k, f := range q.slices() {
		copy(*f, *src[k])
	}
	return q
}

// WIv returns block i's width validity interval.
func (p *Placement) WIv(i int) geom.Interval { return geom.NewInterval(p.WLo[i], p.WHi[i]) }

// HIv returns block i's height validity interval.
func (p *Placement) HIv(i int) geom.Interval { return geom.NewInterval(p.HLo[i], p.HHi[i]) }

// Rect returns block i's rectangle at the given dimensions.
func (p *Placement) Rect(i, w, h int) geom.Rect {
	return geom.NewRect(p.X[i], p.Y[i], w, h)
}

// MaxRect returns block i's rectangle at its maximum interval dimensions.
func (p *Placement) MaxRect(i int) geom.Rect {
	return p.Rect(i, p.WHi[i], p.HHi[i])
}

// Covers reports whether the dimension vector (ws, hs) lies inside every
// validity interval of p — the condition for p to be the placement the
// structure returns for those dimensions.
func (p *Placement) Covers(ws, hs []int) bool {
	for i := range p.X {
		if ws[i] < p.WLo[i] || ws[i] > p.WHi[i] || hs[i] < p.HLo[i] || hs[i] > p.HHi[i] {
			return false
		}
	}
	return true
}

// BoxOverlaps reports whether the 2N-dimensional dimension boxes of p and q
// intersect, i.e. whether some dimension vector is valid for both — the
// conflict the Resolve Overlaps step must eliminate (eq. 5).
func (p *Placement) BoxOverlaps(q *Placement) bool {
	for i := range p.X {
		if !p.WIv(i).Overlaps(q.WIv(i)) || !p.HIv(i).Overlaps(q.HIv(i)) {
			return false
		}
	}
	return true
}

// BoxEmpty reports whether any validity interval of p is empty, which makes
// the placement unreachable by any query.
func (p *Placement) BoxEmpty() bool {
	for i := range p.X {
		if p.WLo[i] > p.WHi[i] || p.HLo[i] > p.HHi[i] {
			return true
		}
	}
	return false
}

// Log2BoxVolume returns log2 of the number of dimension vectors covered by
// p's validity box (0 for a single point; -Inf for an empty box).
func (p *Placement) Log2BoxVolume() float64 {
	var lg float64
	for i := range p.X {
		// LenFloat, not Len: int interval lengths overflow for validity
		// intervals spanning most of the int range, turning the log of a
		// huge box into NaN.
		wl, hl := p.WIv(i).LenFloat(), p.HIv(i).LenFloat()
		if wl == 0 || hl == 0 {
			return math.Inf(-1)
		}
		lg += math.Log2(wl) + math.Log2(hl)
	}
	return lg
}

// CheckLegal verifies that, with every block at its maximum interval
// dimensions, blocks are pairwise non-overlapping (including design-rule
// clearance when margins are attached) and inside the floorplan. By the
// bottom-left anchoring rule this implies legality for every dimension
// vector in the box.
func (p *Placement) CheckLegal(fp geom.Rect) error {
	n := p.N()
	for i := 0; i < n; i++ {
		ri := p.MaxRect(i)
		// A far edge below the anchor is an anchor within a maximum
		// dimension of the int range's end, whose edge wrapped: that block
		// lies past every floorplan, though its rect reads as empty.
		if ri.X1 < ri.X0 || ri.Y1 < ri.Y0 || !fp.Contains(ri) {
			return fmt.Errorf("placement: block %d rect %v outside floorplan %v", i, ri, fp)
		}
		for j := i + 1; j < n; j++ {
			if inflate(ri, p.clearance(i, j)).Overlaps(p.MaxRect(j)) {
				return fmt.Errorf("placement: blocks %d and %d violate spacing at max dims (%v vs %v)",
					i, j, ri, p.MaxRect(j))
			}
		}
	}
	return nil
}

// CheckIntervalsWithin verifies every validity interval lies inside the
// designer bounds of its block.
func (p *Placement) CheckIntervalsWithin(c *netlist.Circuit) error {
	for i, b := range c.Blocks {
		if !b.WRange().ContainsInterval(p.WIv(i)) {
			return fmt.Errorf("placement: block %d width interval %v outside bounds %v",
				i, p.WIv(i), b.WRange())
		}
		if !b.HRange().ContainsInterval(p.HIv(i)) {
			return fmt.Errorf("placement: block %d height interval %v outside bounds %v",
				i, p.HIv(i), b.HRange())
		}
	}
	return nil
}

// DefaultFloorplan returns a square floorplan sized so that all blocks fit
// comfortably at maximum dimensions: side = ceil(sqrt(slack * sum of max
// block areas)), with a minimum side that admits the widest/tallest block.
func DefaultFloorplan(c *netlist.Circuit) geom.Rect {
	const slack = 1.6
	side := int(math.Ceil(math.Sqrt(slack * float64(c.MaxArea()))))
	for _, b := range c.Blocks {
		if b.WMax > side {
			side = b.WMax
		}
		if b.HMax > side {
			side = b.HMax
		}
	}
	return geom.NewRect(0, 0, side, side)
}

// RandomLegal places every block of c at a uniformly random position with
// dimensions at minimum, retrying collisions and falling back to a
// deterministic row packing if random search cannot fit a block. It errors
// only if even packing fails, meaning the floorplan is too small.
func RandomLegal(c *netlist.Circuit, fp geom.Rect, rng *rand.Rand) (*Placement, error) {
	ws := make([]int, c.N())
	hs := make([]int, c.N())
	for i, b := range c.Blocks {
		ws[i] = b.WMin
		hs[i] = b.HMin
	}
	return RandomLegalAt(c, fp, rng, ws, hs)
}

// RandomLegalAt is RandomLegal with explicit block dimensions: every block
// is placed at a random position with dims (ws[i], hs[i]) and the resulting
// placement's intervals are collapsed onto those dimensions. It is the
// starting point of the optimization-based baseline placer, which works on
// already-sized circuits.
func RandomLegalAt(c *netlist.Circuit, fp geom.Rect, rng *rand.Rand, ws, hs []int) (*Placement, error) {
	if len(ws) != c.N() || len(hs) != c.N() {
		return nil, fmt.Errorf("placement: dim vectors sized %d/%d, want %d", len(ws), len(hs), c.N())
	}
	p := New(c)
	for i := range c.Blocks {
		p.WLo[i], p.WHi[i] = ws[i], ws[i]
		p.HLo[i], p.HHi[i] = hs[i], hs[i]
	}
	const tries = 64
	for i := range c.Blocks {
		placed := false
		maxX := fp.X1 - ws[i]
		maxY := fp.Y1 - hs[i]
		if maxX < fp.X0 || maxY < fp.Y0 {
			return nil, fmt.Errorf("placement: block %d (%dx%d) larger than floorplan %v",
				i, ws[i], hs[i], fp)
		}
		for t := 0; t < tries; t++ {
			x := fp.X0 + rng.Intn(maxX-fp.X0+1)
			y := fp.Y0 + rng.Intn(maxY-fp.Y0+1)
			if freeAt(p, i, x, y, ws[i], hs[i]) {
				p.X[i], p.Y[i] = x, y
				placed = true
				break
			}
		}
		if !placed {
			x, y, ok := scanFree(p, i, fp, ws[i], hs[i])
			if !ok {
				return nil, fmt.Errorf("placement: cannot fit block %d anywhere in %v", i, fp)
			}
			p.X[i], p.Y[i] = x, y
		}
	}
	return p, nil
}

// ResetToMin collapses every dimension interval back to the block minimums,
// the state from which Expand grows a freshly selected placement.
func (p *Placement) ResetToMin(c *netlist.Circuit) {
	for i, b := range c.Blocks {
		p.WLo[i], p.WHi[i] = b.WMin, b.WMin
		p.HLo[i], p.HHi[i] = b.HMin, b.HMin
	}
	p.AvgCost, p.BestCost = 0, 0
	p.BestW, p.BestH = nil, nil
}

// Expand implements the paper's Placement Expansion (§3.1.2): starting from
// minimum dimensions, block dimension upper bounds are incremented one by
// one (width then height, round-robin over blocks) until every expansion is
// blocked by overlap, floorplan bounds, or the block's designer maximum.
// step controls the units added per increment (>=1).
func (p *Placement) Expand(c *netlist.Circuit, fp geom.Rect, step int) {
	if step < 1 {
		step = 1
	}
	n := p.N()
	wDone := make([]bool, n)
	hDone := make([]bool, n)
	for changed := true; changed; {
		changed = false
		for i := 0; i < n; i++ {
			b := c.Blocks[i]
			if !wDone[i] {
				next := p.WHi[i] + step
				if next > b.WMax {
					next = b.WMax
				}
				if next > p.WHi[i] && p.fitsAt(i, next, p.HHi[i], fp) {
					p.WHi[i] = next
					changed = true
				} else {
					wDone[i] = true
				}
			}
			if !hDone[i] {
				next := p.HHi[i] + step
				if next > b.HMax {
					next = b.HMax
				}
				if next > p.HHi[i] && p.fitsAt(i, p.WHi[i], next, fp) {
					p.HHi[i] = next
					changed = true
				} else {
					hDone[i] = true
				}
			}
		}
	}
}

// Perturb implements the paper's Perturb Placement (§3.1.4): a fraction of
// blocks, chosen at random, have their coordinates varied by up to maxShift
// units; out-of-bound coordinates wrap to the opposite side of the floorplan
// ("to allow some shuffling of the circuit"). Moves that would overlap
// another block at minimum dimensions are retried a bounded number of times
// and then abandoned, keeping the placement legal. Dimension intervals are
// reset to minimums afterwards, ready for Expand.
func (p *Placement) Perturb(c *netlist.Circuit, fp geom.Rect, rng *rand.Rand, fraction float64, maxShift int) {
	p.ResetToMin(c)
	n := p.N()
	count := int(math.Round(fraction * float64(n)))
	if count < 1 {
		count = 1
	}
	if count > n {
		count = n
	}
	if maxShift < 1 {
		maxShift = 1
	}
	order := rng.Perm(n)[:count]
	for _, i := range order {
		b := c.Blocks[i]
		origX, origY := p.X[i], p.Y[i]
		const tries = 20
		for t := 0; t < tries; t++ {
			dx := rng.Intn(2*maxShift+1) - maxShift
			dy := rng.Intn(2*maxShift+1) - maxShift
			x := wrap(origX+dx, fp.X0, fp.X1-b.WMin)
			y := wrap(origY+dy, fp.Y0, fp.Y1-b.HMin)
			if freeAt(p, i, x, y, b.WMin, b.HMin) {
				p.X[i], p.Y[i] = x, y
				break
			}
		}
	}
}

// Perturb1 moves a single block by up to maxShift units with toroidal wrap,
// retrying collisions a bounded number of times and leaving the block in
// place if no legal move is found. Block dimensions are taken from the
// block's current interval maximums, so it works both on minimum-dims
// placements (explorer) and exact-dims placements (optimization baseline).
func (p *Placement) Perturb1(c *netlist.Circuit, fp geom.Rect, rng *rand.Rand, i, maxShift int) {
	if maxShift < 1 {
		maxShift = 1
	}
	w, h := p.WHi[i], p.HHi[i]
	origX, origY := p.X[i], p.Y[i]
	const tries = 20
	for t := 0; t < tries; t++ {
		dx := rng.Intn(2*maxShift+1) - maxShift
		dy := rng.Intn(2*maxShift+1) - maxShift
		x := wrap(origX+dx, fp.X0, fp.X1-w)
		y := wrap(origY+dy, fp.Y0, fp.Y1-h)
		if freeAt(p, i, x, y, w, h) {
			p.X[i], p.Y[i] = x, y
			return
		}
	}
}

// SwapBlocks exchanges the anchors of blocks i and j when the result is
// legal at the blocks' current interval-maximum dimensions; it reports
// whether the swap was applied. Swaps are the second move class of the
// optimization-based baseline.
func (p *Placement) SwapBlocks(c *netlist.Circuit, fp geom.Rect, i, j int) bool {
	p.X[i], p.X[j] = p.X[j], p.X[i]
	p.Y[i], p.Y[j] = p.Y[j], p.Y[i]
	wi, hi := p.WHi[i], p.HHi[i]
	wj, hj := p.WHi[j], p.HHi[j]
	ok := fp.Contains(p.Rect(i, wi, hi)) &&
		fp.Contains(p.Rect(j, wj, hj)) &&
		freeAt(p, i, p.X[i], p.Y[i], wi, hi) &&
		freeAt(p, j, p.X[j], p.Y[j], wj, hj)
	if !ok {
		p.X[i], p.X[j] = p.X[j], p.X[i]
		p.Y[i], p.Y[j] = p.Y[j], p.Y[i]
	}
	return ok
}

// fitsAt reports whether block i with dimensions (w, h) stays inside the
// floorplan and keeps required clearance from every other block at its
// current max dimensions.
func (p *Placement) fitsAt(i, w, h int, fp geom.Rect) bool {
	r := p.Rect(i, w, h)
	if !fp.Contains(r) {
		return false
	}
	for j := range p.X {
		if j == i {
			continue
		}
		if inflate(r, p.clearance(i, j)).Overlaps(p.MaxRect(j)) {
			return false
		}
	}
	return true
}

// freeAt reports whether block i placed at (x, y) with dimensions (w, h)
// keeps required clearance from every other block at its current max
// dimensions. It does not check floorplan bounds.
func freeAt(p *Placement, i, x, y, w, h int) bool {
	r := geom.NewRect(x, y, w, h)
	for j := range p.X {
		if j == i {
			continue
		}
		if inflate(r, p.clearance(i, j)).Overlaps(p.MaxRect(j)) {
			return false
		}
	}
	return true
}

// scanFree raster-scans the floorplan for the first position where block i
// fits at dimensions (w, h).
func scanFree(p *Placement, i int, fp geom.Rect, w, h int) (x, y int, ok bool) {
	const stride = 2
	for y = fp.Y0; y+h <= fp.Y1; y += stride {
		for x = fp.X0; x+w <= fp.X1; x += stride {
			if freeAt(p, i, x, y, w, h) {
				return x, y, true
			}
		}
	}
	return 0, 0, false
}

// wrap folds v into [lo, hi] toroidally. hi < lo cannot happen for valid
// floorplans (checked by callers via RandomLegal's size guard).
func wrap(v, lo, hi int) int {
	span := hi - lo + 1
	if span <= 0 {
		return lo
	}
	m := (v - lo) % span
	if m < 0 {
		m += span
	}
	return lo + m
}
