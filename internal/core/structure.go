package core

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync/atomic"

	"mps/internal/geom"
	"mps/internal/netlist"
	"mps/internal/placement"
)

// Backup instantiates a placement for dimension vectors no stored placement
// covers. Implementations must accept any in-bounds dimension vector.
type Backup interface {
	// Place returns bottom-left anchors for every block at dims (ws, hs).
	Place(ws, hs []int) (x, y []int, err error)
}

// ErrUncovered is returned by Query when no stored placement covers the
// requested dimensions and no backup is installed.
var ErrUncovered = errors.New("core: dimension vector not covered by any stored placement")

// Structure is a multi-placement structure for one circuit topology.
// Once generation is done it is safe for concurrent readers; see the
// package documentation for the full concurrency contract.
type Structure struct {
	circuit *netlist.Circuit
	fp      geom.Rect

	// recs is indexed by placement ID; deleted entries are nil. The pieces
	// of one candidate or stored placement point to one record.
	recs  []*record
	alive int

	// terms[id] caches coverageTerm(id) for live placements, so Coverage
	// needs no Log2 per call. Entries of deleted IDs are stale and never
	// read. rangeLg holds the 2N designer-range Log2 values coverageTerm
	// subtracts (width of block i at 2i, height at 2i+1).
	terms   []float64
	rangeLg []float64

	// exps[id] caches Exp2(terms[id] - expBase) for live placements while
	// expsValid holds, and expBase is then the largest live term, so
	// Coverage needs no Exp2 per placement. store and shrinkRow write one
	// entry; a term above expBase, or deleting or shrinking the entry
	// equal to it, clears expsValid, and rebaseExps (run at the end of
	// Insert, Compact, Renumber and Load) recomputes the cache in one
	// pass. Readers never write it.
	exps      []float64
	expBase   float64
	expsValid bool

	// boxes is the flat box table, the only copy of the stored
	// placements' validity intervals: ID id's 2N intervals are
	// boxes[id*4N : (id+1)*4N], four values per block (WLo, WHi, HLo,
	// HHi) in block order, so row r's interval sits at offset 2r. store
	// appends an entry, shrinkRow rewrites one, delete empties one (see
	// emptyBox) and Renumber packs the table. conflicting scans it, and
	// Compile sweeps it.
	boxes []int
	// Scratch reused across calls: conflicting's result, Insert's
	// candidate box, and the box shrinkStored forks through and merge
	// builds a union in.
	conflicts, cand, fork []int

	backup Backup

	// compiled caches the flat query index built by Compile. Mutations
	// (store, delete, shrinkRow, Renumber) drop it, so it never answers for
	// boxes that have since changed.
	compiled atomic.Pointer[CompiledStructure]
}

// record is one BDIO result as stored: eq. 2's anchors without the
// intervals, which live in the box table, plus the BDIO's costs. It never
// changes once stored, so pieces and merges share its slices freely.
type record struct {
	X, Y              []int
	AvgCost, BestCost float64
	BestW, BestH      []int
}

// newRecord copies p's anchors, costs and best dimensions into a record,
// its slices cut from one array, so that it keeps none of p's storage
// alive (a Clone's anchors share one array with its intervals).
func newRecord(p *placement.Placement) *record {
	r := &record{AvgCost: p.AvgCost, BestCost: p.BestCost}
	src := [4][]int{p.X, p.Y, p.BestW, p.BestH}
	buf := slices.Concat(src[:]...)
	for k, dst := range [4]*[]int{&r.X, &r.Y, &r.BestW, &r.BestH} {
		if n := len(src[k]); n > 0 {
			*dst, buf = buf[:n:n], buf[n:]
		}
	}
	return r
}

// appendBox appends p's validity box to dst in the box table's layout.
func appendBox(dst []int, p *placement.Placement) []int {
	for i := range p.X {
		dst = append(dst, p.WLo[i], p.WHi[i], p.HLo[i], p.HHi[i])
	}
	return dst
}

// NewStructure returns an empty structure for the circuit on the given
// floorplan.
func NewStructure(c *netlist.Circuit, fp geom.Rect) *Structure {
	s := &Structure{circuit: c, fp: fp, rangeLg: make([]float64, 2*c.N())}
	for i, b := range c.Blocks {
		s.rangeLg[2*i] = math.Log2(b.WRange().LenFloat())
		s.rangeLg[2*i+1] = math.Log2(b.HRange().LenFloat())
	}
	return s
}

// Circuit returns the topology this structure was generated for.
func (s *Structure) Circuit() *netlist.Circuit { return s.circuit }

// Floorplan returns the floorplan the placements live on.
func (s *Structure) Floorplan() geom.Rect { return s.fp }

// SetBackup installs the fallback instantiator for uncovered queries.
func (s *Structure) SetBackup(b Backup) { s.backup = b }

// LookupLinear returns the IDs of all live placements covering the
// dimension vector, ascending — the raw intersection of eq. 4 before the
// |M(V)| = 1 check, nil when uncovered. It is the reference the compiled
// index's Lookup is tested against: a linear scan of the box table with
// boxCovers, sharing the table the index is swept from but none of the
// sweep, the index's tables or its search.
func (s *Structure) LookupLinear(ws, hs []int) []int {
	var out []int
	for id, r := range s.recs {
		if r != nil && boxCovers(s.box(id), ws, hs) {
			out = append(out, id)
		}
	}
	return out
}

// NumPlacements returns the number of live stored placements — the
// "Placements" column of the paper's Table 2.
func (s *Structure) NumPlacements() int { return s.alive }

// IDs returns the IDs of all live placements in ascending order.
func (s *Structure) IDs() []int {
	out := make([]int, 0, s.alive)
	for id, r := range s.recs {
		if r != nil {
			out = append(out, id)
		}
	}
	return out
}

// Get returns a copy of the live placement with the given ID, or nil: its
// record and box table entry, with its ID and the circuit's margins, in
// two allocations (placement.Make). Changing it changes nothing stored.
func (s *Structure) Get(id int) *placement.Placement {
	if id < 0 || id >= len(s.recs) || s.recs[id] == nil {
		return nil
	}
	r, box := s.recs[id], s.box(id)
	p := placement.Make(s.circuit, len(r.BestW), len(r.BestH))
	p.ID, p.AvgCost, p.BestCost = id, r.AvgCost, r.BestCost
	copy(p.X, r.X)
	copy(p.Y, r.Y)
	copy(p.BestW, r.BestW)
	copy(p.BestH, r.BestH)
	for i := range p.X {
		p.WLo[i], p.WHi[i], p.HLo[i], p.HHi[i] = box[4*i], box[4*i+1], box[4*i+2], box[4*i+3]
	}
	return p
}

// store assigns the next ID to a piece of rec with validity box box and
// appends box to the box table (the paper's Store Placement routine). The
// caller must have checked the box (checkCandidate) and resolved overlaps.
func (s *Structure) store(rec *record, box []int) int {
	s.invalidate()
	id := len(s.recs)
	s.recs = append(s.recs, rec)
	s.boxes = append(s.boxes, box...)
	lg := s.coverageTerm(box)
	s.terms = append(s.terms, lg)
	s.exps = append(s.exps, 0)
	s.setExp(id, lg)
	s.alive++
	return id
}

// checkCandidate reports a placement no box may be stored from: an empty
// interval, or one outside its block's designer bounds.
func (s *Structure) checkCandidate(p *placement.Placement) error {
	if p.BoxEmpty() {
		return fmt.Errorf("core: refusing to store placement with empty dimension box")
	}
	return p.CheckIntervalsWithin(s.circuit)
}

// delete removes the placement from the structure and empties its box
// table entry.
func (s *Structure) delete(id int) {
	if s.recs[id] == nil {
		return
	}
	s.invalidate()
	box := s.box(id)
	for k := 0; k < len(box); k += 2 {
		box[k], box[k+1] = emptyBox.Lo, emptyBox.Hi
	}
	if s.terms[id] == s.expBase {
		s.expsValid = false
	}
	s.recs[id] = nil
	s.alive--
}

// emptyBox is every interval of a deleted ID's box table entry. It
// overlaps only an interval spanning the whole int range, so conflicting
// rejects an emptied entry at its first row (and checks liveness before
// reporting any match); the sweeps skip deleted IDs outright.
var emptyBox = geom.Interval{Lo: math.MaxInt, Hi: math.MinInt}

// box returns ID id's entry in the box table.
func (s *Structure) box(id int) []int {
	w := 4 * s.circuit.N()
	return s.boxes[id*w : (id+1)*w : (id+1)*w]
}

// boxRow returns row r's interval of a box (row 2i is block i's width,
// 2i+1 its height).
func boxRow(box []int, r int) geom.Interval {
	return geom.Interval{Lo: box[2*r], Hi: box[2*r+1]}
}

// boxCovers reports whether the dimension vector (ws, hs) lies inside
// every interval of the box.
func boxCovers(box []int, ws, hs []int) bool {
	for i := range ws {
		b := box[4*i : 4*i+4 : 4*i+4]
		if ws[i] < b[0] || ws[i] > b[1] || hs[i] < b[2] || hs[i] > b[3] {
			return false
		}
	}
	return true
}

// boxesOverlap reports whether two boxes share a dimension vector: their
// intervals overlap in every row (empty intervals overlap nothing).
func boxesOverlap(a, b []int) bool {
	for r := 0; r < len(a)/2; r++ {
		if !boxRow(a, r).Overlaps(boxRow(b, r)) {
			return false
		}
	}
	return true
}

// boxLog2Volume returns log2 of the number of dimension vectors in the box
// (0 for a single point, -Inf for an empty box), summed as
// placement.Log2BoxVolume sums it.
func boxLog2Volume(box []int) float64 {
	var lg float64
	for r := 0; r < len(box)/2; r += 2 {
		wl, hl := boxRow(box, r).LenFloat(), boxRow(box, r+1).LenFloat()
		if wl == 0 || hl == 0 {
			return math.Inf(-1)
		}
		lg += math.Log2(wl) + math.Log2(hl)
	}
	return lg
}

// invalidate drops the compiled index after a mutation.
func (s *Structure) invalidate() { s.compiled.Store(nil) }

// Renumber packs live placement IDs into the dense range [0, alive), in
// ascending current-ID order, and packs the box table to match. Queries
// are unaffected except for the IDs they report.
//
// Serialization keeps only live placements, in ID order, and load re-stores
// them densely — so a structure with ID holes answers QueryID differently
// after a save/load round trip than before it. Renumbering a finished
// structure (generation ends with deletes from overlap resolution and
// Compact) makes its IDs stable across that round trip, which is what lets
// cluster replicas that exchange structure files report the same
// placement_id as the owner's in-memory copy.
//
// The old→new ID map is monotone and Compile sweeps its rows from the box
// table, so the rows that follow are exactly those of storing the live
// placements afresh in ID order.
func (s *Structure) Renumber() {
	defer s.rebaseExps()
	if len(s.recs) == s.alive {
		return // already dense
	}
	s.invalidate()
	w := 4 * s.circuit.N()
	next := 0
	for id, r := range s.recs {
		if r == nil {
			continue
		}
		// next <= id always (holes only shrink the index), so the target
		// slot is free or is r's own.
		if id != next {
			s.recs[next], s.recs[id] = r, nil
			s.terms[next], s.exps[next] = s.terms[id], s.exps[id]
			copy(s.boxes[next*w:(next+1)*w], s.boxes[id*w:(id+1)*w])
		}
		next++
	}
	s.recs = s.recs[:next]
	s.terms, s.exps = s.terms[:next], s.exps[:next]
	s.boxes = s.boxes[:next*w]
}

// shrinkRow narrows row r's validity interval of a stored placement in
// place, in its box table entry.
func (s *Structure) shrinkRow(id, r int, iv geom.Interval) {
	s.invalidate()
	box := s.box(id)
	setRow(box, r, iv)
	lg := s.coverageTerm(box)
	if s.terms[id] == s.expBase {
		s.expsValid = false
	}
	s.terms[id] = lg
	s.setExp(id, lg)
}

// scan is the allocation-free reference walk behind Query and
// CoverageMonteCarlo: the lowest live ID whose box covers the dimension
// vector (-1 when none does) and the number of covering placements,
// counted with boxCovers over every live entry of the box table.
func (s *Structure) scan(ws, hs []int) (id, count int) {
	id = -1
	for k, r := range s.recs {
		if r != nil && boxCovers(s.box(k), ws, hs) {
			if count == 0 {
				id = k
			}
			count++
		}
	}
	return id, count
}

// Result is a placement instantiation: anchors for every block plus the
// provenance of the answer.
type Result struct {
	// X, Y hold block anchors.
	X, Y []int
	// PlacementID is the stored placement used, or -1 when the backup
	// template answered.
	PlacementID int
	// FromBackup reports whether the backup template answered.
	FromBackup bool
}

// Query implements the paper's function M (eq. 1/4): it returns a copy
// (see Get) of the unique stored placement covering dims (ws, hs), or
// ErrUncovered when none does. More than one covering placement is an
// invariant violation and returns an error.
//
// Query and Instantiate are the reference answer, not the serving path:
// they scan the box table (see scan), so they answer in time linear in the
// placements and share none of the compiled index's sweep, tables or
// search, which tests and the benchmark check against them. Serving goes
// through Compile.
func (s *Structure) Query(ws, hs []int) (*placement.Placement, error) {
	id, err := s.find(ws, hs)
	if err != nil {
		return nil, err
	}
	return s.Get(id), nil
}

// find is Query's answer as a placement ID.
func (s *Structure) find(ws, hs []int) (int, error) {
	if err := s.checkDims(ws, hs); err != nil {
		return -1, err
	}
	id, count := s.scan(ws, hs)
	switch count {
	case 0:
		return -1, ErrUncovered
	case 1:
		return id, nil
	}
	return -1, fmt.Errorf("core: eq.5 violated — %d placements cover one dimension vector: %v",
		count, s.LookupLinear(ws, hs))
}

// Instantiate answers a synthesis-loop placement request: given block
// dimensions it returns anchors from the covering stored placement, copied
// from its record, or from the backup template for uncovered space
// (ErrUncovered when none is installed). Like Query it is the brute-force
// reference; CompiledStructure.Instantiate is the serving twin that must
// match it.
func (s *Structure) Instantiate(ws, hs []int) (Result, error) {
	id, err := s.find(ws, hs)
	switch {
	case err == nil:
		r := s.recs[id]
		return Result{X: cloneInts(r.X), Y: cloneInts(r.Y), PlacementID: id}, nil
	case errors.Is(err, ErrUncovered) && s.backup != nil:
		x, y, berr := s.backup.Place(ws, hs)
		if berr != nil {
			return Result{}, fmt.Errorf("core: backup failed: %w", berr)
		}
		return Result{X: x, Y: y, PlacementID: -1, FromBackup: true}, nil
	default:
		return Result{}, err
	}
}

// checkDims validates vector lengths and designer bounds.
func (s *Structure) checkDims(ws, hs []int) error {
	n := s.circuit.N()
	if len(ws) != n || len(hs) != n {
		return fmt.Errorf("core: dimension vectors sized %d/%d, want %d", len(ws), len(hs), n)
	}
	for i, b := range s.circuit.Blocks {
		if !b.WRange().Contains(ws[i]) {
			return fmt.Errorf("core: block %d width %d outside designer bounds %v", i, ws[i], b.WRange())
		}
		if !b.HRange().Contains(hs[i]) {
			return fmt.Errorf("core: block %d height %d outside designer bounds %v", i, hs[i], b.HRange())
		}
	}
	return nil
}

func cloneInts(s []int) []int {
	out := make([]int, len(s))
	copy(out, s)
	return out
}
