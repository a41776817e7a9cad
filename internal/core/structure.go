package core

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"mps/internal/geom"
	"mps/internal/intervalmap"
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

	// placements is indexed by placement ID; deleted entries are nil.
	placements []*placement.Placement
	alive      int

	// terms[id] caches coverageTerm(placements[id]) for live placements,
	// so Coverage needs no Log2 per call. Entries of deleted IDs are stale
	// and never read.
	terms []float64

	// boxes is the flat box table: ID id's 2N validity intervals are
	// boxes[id*4N : (id+1)*4N], four values per block (WLo, WHi, HLo,
	// HHi) in block order, so row r's interval sits at offset 2r. store
	// appends an entry, shrinkRow rewrites one, delete empties one (see
	// emptyBox) and Renumber packs the table. conflicting scans it, and
	// Compile and the rows view sweep it.
	boxes []int
	// conflicts and probe are conflicting's result and its copy of the
	// candidate's box, reused across calls.
	conflicts, probe []int

	backup Backup

	// resolveStrategy selects the shrink row during overlap resolution.
	resolveStrategy ResolveRowStrategy

	// scratch pools query-intersection buffers so concurrent Lookup calls
	// never share scratch space (holds *[]int).
	scratch sync.Pool

	// compiled caches the flat query index built by Compile, and rows the
	// Figure-3 linked rows the tree query path walks, built on first use.
	// Mutations (store, delete, shrinkRow, Renumber) drop both, so neither
	// can answer for boxes that have since changed.
	compiled atomic.Pointer[CompiledStructure]
	rows     atomic.Pointer[[]*intervalmap.Row]
}

// NewStructure returns an empty structure for the circuit on the given
// floorplan.
func NewStructure(c *netlist.Circuit, fp geom.Rect) *Structure {
	return &Structure{circuit: c, fp: fp}
}

// Circuit returns the topology this structure was generated for.
func (s *Structure) Circuit() *netlist.Circuit { return s.circuit }

// Floorplan returns the floorplan the placements live on.
func (s *Structure) Floorplan() geom.Rect { return s.fp }

// SetBackup installs the fallback instantiator for uncovered queries.
func (s *Structure) SetBackup(b Backup) { s.backup = b }

// SetResolveStrategy selects the shrink-row policy for subsequent Inserts.
// The default (SmallestOverlapRow) is the paper's choice; FirstOverlapRow
// exists for the ablation benchmarks.
func (s *Structure) SetResolveStrategy(rs ResolveRowStrategy) { s.resolveStrategy = rs }

// LookupLinear is the reference query implementation: a linear scan over
// all live placements with Covers. It exists to validate Lookup and as the
// ablation baseline for the row-based query path; results match Lookup
// exactly.
func (s *Structure) LookupLinear(ws, hs []int) []int {
	var out []int
	for id, p := range s.placements {
		if p != nil && p.Covers(ws, hs) {
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
	for id, p := range s.placements {
		if p != nil {
			out = append(out, id)
		}
	}
	return out
}

// Get returns the live placement with the given ID, or nil.
func (s *Structure) Get(id int) *placement.Placement {
	if id < 0 || id >= len(s.placements) {
		return nil
	}
	return s.placements[id]
}

// store assigns the next ID to p, records it, and appends its intervals
// to the box table (the paper's Store Placement routine). The caller must
// have resolved overlaps first.
func (s *Structure) store(p *placement.Placement) (int, error) {
	if p.BoxEmpty() {
		return -1, fmt.Errorf("core: refusing to store placement with empty dimension box")
	}
	if err := p.CheckIntervalsWithin(s.circuit); err != nil {
		return -1, err
	}
	s.invalidate()
	id := len(s.placements)
	p.ID = id
	s.placements = append(s.placements, p)
	s.terms = append(s.terms, s.coverageTerm(p))
	s.alive++
	for i := range p.X {
		s.boxes = append(s.boxes, p.WLo[i], p.WHi[i], p.HLo[i], p.HHi[i])
	}
	return id, nil
}

// delete removes the placement from the structure and empties its box
// table entry.
func (s *Structure) delete(id int) {
	if s.placements[id] == nil {
		return
	}
	s.invalidate()
	box := s.box(id)
	for k := 0; k < len(box); k += 2 {
		box[k], box[k+1] = emptyBox.Lo, emptyBox.Hi
	}
	s.placements[id] = nil
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

// invalidate drops the compiled index and the rows view after a mutation.
func (s *Structure) invalidate() {
	s.compiled.Store(nil)
	s.rows.Store(nil)
}

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
// The old→new ID map is monotone and the rows are derived from the box
// table, so the rows that follow are exactly those of storing the live
// placements afresh in ID order.
func (s *Structure) Renumber() {
	if len(s.placements) == s.alive {
		return // already dense
	}
	s.invalidate()
	w := 4 * s.circuit.N()
	next := 0
	for id, p := range s.placements {
		if p == nil {
			continue
		}
		// next <= id always (holes only shrink the index), so the target
		// slot is free or is p's own.
		if id != next {
			p.ID = next
			s.placements[next] = p
			s.terms[next] = s.terms[id]
			copy(s.boxes[next*w:(next+1)*w], s.boxes[id*w:(id+1)*w])
			s.placements[id] = nil
		}
		next++
	}
	s.placements = s.placements[:next]
	s.terms = s.terms[:next]
	s.boxes = s.boxes[:next*w]
}

// shrinkRow narrows one validity interval of a stored placement in place,
// updating its box table entry. dim 0 is width, 1 is height.
func (s *Structure) shrinkRow(p *placement.Placement, block, dim int, newIv geom.Interval) {
	s.invalidate()
	if dim == 0 {
		p.WLo[block], p.WHi[block] = newIv.Lo, newIv.Hi
	} else {
		p.HLo[block], p.HHi[block] = newIv.Lo, newIv.Hi
	}
	off := 4*block + 2*dim
	box := s.box(p.ID)
	box[off], box[off+1] = newIv.Lo, newIv.Hi
	s.terms[p.ID] = s.coverageTerm(p)
}

// view returns the Figure-3 linked rows of the live placements, building
// and caching them on first use: rows[2i] and rows[2i+1] are block i's
// width and height rows, in the compiled tables' order. Only the tree
// query path reads them; the compiled index sweeps the box table itself.
// Concurrent first readers may each build the rows; any of them is
// correct, since the box table only changes under the mutations that drop
// them.
func (s *Structure) view() []*intervalmap.Row {
	if v := s.rows.Load(); v != nil {
		return *v
	}
	ids := s.IDs()
	lo, hi := make([]int, len(ids)), make([]int, len(ids))
	rows := make([]*intervalmap.Row, 2*s.circuit.N())
	var sw intervalmap.Sweeper
	for r := range rows {
		s.rowIntervals(r, ids, lo, hi)
		rows[r] = sw.Build(lo, hi, ids)
	}
	s.rows.Store(&rows)
	return rows
}

// rowIntervals fills lo[k], hi[k] with row r's interval of placement
// ids[k], read from the box table (row 2i is block i's width, 2i+1 its
// height).
func (s *Structure) rowIntervals(r int, ids []int, lo, hi []int) {
	w := 4 * s.circuit.N()
	for k, id := range ids {
		off := id*w + 2*r
		lo[k], hi[k] = s.boxes[off], s.boxes[off+1]
	}
}

// Lookup returns the IDs of all stored placements covering the dimension
// vector — the raw intersection of eq. 4 before the |M(V)| = 1 check.
// The result is nil when uncovered and shares no memory with the rows.
// Lookup is safe for concurrent use: intersection scratch is taken from a
// per-structure pool, never shared between calls.
func (s *Structure) Lookup(ws, hs []int) []int {
	sp, acc := s.intersectScratch(ws, hs)
	var out []int
	if len(acc) > 0 {
		out = make([]int, len(acc))
		copy(out, acc)
	}
	s.putScratch(sp, acc)
	return out
}

// lookupUnique is the allocation-free hot path behind Lookup and Query: it
// returns the covering placement ID and the intersection size, without
// copying the full ID set out. count > 1 (an eq.5 violation) returns an
// arbitrary covering ID.
func (s *Structure) lookupUnique(ws, hs []int) (id, count int) {
	sp, acc := s.intersectScratch(ws, hs)
	id, count = -1, len(acc)
	if count > 0 {
		id = acc[0]
	}
	s.putScratch(sp, acc)
	return id, count
}

// intersectScratch runs the eq. 4 intersection in a pooled buffer. Callers
// must hand both return values to putScratch once done reading acc.
func (s *Structure) intersectScratch(ws, hs []int) (sp *[]int, acc []int) {
	sp, _ = s.scratch.Get().(*[]int)
	if sp == nil {
		sp = new([]int)
	}
	return sp, s.intersectInto((*sp)[:0], ws, hs)
}

// putScratch returns a buffer obtained from intersectScratch to the pool,
// keeping any capacity acc grew to.
func (s *Structure) putScratch(sp *[]int, acc []int) {
	*sp = acc[:0]
	s.scratch.Put(sp)
}

// intersectInto computes the eq. 4 row intersection into acc and returns it.
func (s *Structure) intersectInto(acc []int, ws, hs []int) []int {
	rows := s.view()
	first := true
	for i := 0; i < len(rows)/2; i++ {
		for dim := 0; dim < 2; dim++ {
			v := ws[i]
			if dim == 1 {
				v = hs[i]
			}
			ids := rows[2*i+dim].Lookup(v)
			if len(ids) == 0 {
				return acc[:0]
			}
			if first {
				acc = append(acc[:0], ids...)
				first = false
				continue
			}
			acc = intersectSorted(acc, ids)
			if len(acc) == 0 {
				return acc
			}
		}
	}
	return acc
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

// Query implements the paper's function M (eq. 1/4): it returns the unique
// stored placement covering dims (ws, hs). Uncovered space falls back to
// the backup when installed, else returns ErrUncovered. More than one
// covering placement is an invariant violation and returns an error.
func (s *Structure) Query(ws, hs []int) (*placement.Placement, error) {
	if err := s.checkDims(ws, hs); err != nil {
		return nil, err
	}
	id, count := s.lookupUnique(ws, hs)
	switch count {
	case 0:
		return nil, ErrUncovered
	case 1:
		return s.placements[id], nil
	}
	return nil, fmt.Errorf("core: eq.5 violated — %d placements cover one dimension vector: %v",
		count, s.Lookup(ws, hs))
}

// Instantiate answers a synthesis-loop placement request: given block
// dimensions it returns anchors from the covering stored placement, or from
// the backup template for uncovered space.
func (s *Structure) Instantiate(ws, hs []int) (Result, error) {
	p, err := s.Query(ws, hs)
	switch {
	case err == nil:
		return Result{X: cloneInts(p.X), Y: cloneInts(p.Y), PlacementID: p.ID}, nil
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

// intersectSorted intersects two ascending slices in place into acc.
func intersectSorted(acc, other []int) []int {
	out := acc[:0]
	i, j := 0, 0
	for i < len(acc) && j < len(other) {
		switch {
		case acc[i] < other[j]:
			i++
		case acc[i] > other[j]:
			j++
		default:
			out = append(out, acc[i])
			i++
			j++
		}
	}
	return out
}

func cloneInts(s []int) []int {
	out := make([]int, len(s))
	copy(out, s)
	return out
}
