package core

import (
	"errors"
	"fmt"
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

	// wRows[i] and hRows[i] are block i's width and height rows.
	wRows, hRows []*intervalmap.Row

	backup Backup

	// resolveStrategy selects the shrink row during overlap resolution.
	resolveStrategy ResolveRowStrategy

	// scratch pools query-intersection buffers so concurrent Lookup calls
	// never share scratch space (holds *[]int).
	scratch sync.Pool

	// compiled caches the flat query index built by Compile; mutations
	// (store, delete, shrinkRow) drop it so a stale index can never answer
	// for rows that have since changed.
	compiled atomic.Pointer[CompiledStructure]
}

// NewStructure returns an empty structure for the circuit on the given
// floorplan.
func NewStructure(c *netlist.Circuit, fp geom.Rect) *Structure {
	n := c.N()
	s := &Structure{
		circuit: c,
		fp:      fp,
		wRows:   make([]*intervalmap.Row, n),
		hRows:   make([]*intervalmap.Row, n),
	}
	for i := 0; i < n; i++ {
		s.wRows[i] = &intervalmap.Row{}
		s.hRows[i] = &intervalmap.Row{}
	}
	return s
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

// store assigns the next ID to p, records it, and registers its intervals
// in all 2N rows (the paper's Store Placement routine). The caller must
// have resolved overlaps first.
func (s *Structure) store(p *placement.Placement) (int, error) {
	if p.BoxEmpty() {
		return -1, fmt.Errorf("core: refusing to store placement with empty dimension box")
	}
	if err := p.CheckIntervalsWithin(s.circuit); err != nil {
		return -1, err
	}
	s.compiled.Store(nil)
	id := len(s.placements)
	p.ID = id
	s.placements = append(s.placements, p)
	s.terms = append(s.terms, s.coverageTerm(p))
	s.alive++
	for i := 0; i < s.circuit.N(); i++ {
		s.wRows[i].Insert(id, p.WIv(i))
		s.hRows[i].Insert(id, p.HIv(i))
	}
	return id, nil
}

// delete removes the placement from the structure and all rows.
func (s *Structure) delete(id int) {
	p := s.placements[id]
	if p == nil {
		return
	}
	s.compiled.Store(nil)
	for i := 0; i < s.circuit.N(); i++ {
		s.wRows[i].Remove(id, p.WIv(i))
		s.hRows[i].Remove(id, p.HIv(i))
	}
	s.placements[id] = nil
	s.alive--
}

// Renumber packs live placement IDs into the dense range [0, alive), in
// ascending current-ID order, and rewrites the row registrations to match.
// Queries are unaffected except for the IDs they report.
//
// Serialization keeps only live placements, in ID order, and load re-stores
// them densely — so a structure with ID holes answers QueryID differently
// after a save/load round trip than before it. Renumbering a finished
// structure (generation ends with deletes from overlap resolution and
// Compact) makes its IDs stable across that round trip, which is what lets
// cluster replicas that exchange structure files report the same
// placement_id as the owner's in-memory copy.
//
// The old→new ID map is monotone, so every row is relabeled in place (each
// interval's id array stays ascending) and then coalesced once. That leaves
// exactly the rows a Remove and re-Insert of every moved placement would:
// the first such Remove coalesces every row, and relabeling neither splits
// nor merges intervals.
func (s *Structure) Renumber() {
	if len(s.placements) == s.alive {
		return // already dense
	}
	s.compiled.Store(nil)
	newID := make([]int, len(s.placements))
	moved := false
	next := 0
	for id, p := range s.placements {
		if p == nil {
			newID[id] = -1
			continue
		}
		newID[id] = next
		// next <= id always (holes only shrink the index), so the target
		// slot is free or is p's own.
		if id != next {
			moved = true
			p.ID = next
			s.placements[next] = p
			s.terms[next] = s.terms[id]
			s.placements[id] = nil
		}
		next++
	}
	s.placements = s.placements[:next]
	s.terms = s.terms[:next]
	if !moved {
		return // only trailing holes: no registration changes
	}
	for i := range s.wRows {
		s.wRows[i].Relabel(newID)
		s.hRows[i].Relabel(newID)
	}
}

// shrinkRow narrows one validity interval of a stored placement in place,
// updating the affected row. dim 0 is width, 1 is height.
func (s *Structure) shrinkRow(p *placement.Placement, block, dim int, newIv geom.Interval) {
	s.compiled.Store(nil)
	var row *intervalmap.Row
	var old geom.Interval
	if dim == 0 {
		row = s.wRows[block]
		old = p.WIv(block)
	} else {
		row = s.hRows[block]
		old = p.HIv(block)
	}
	row.Remove(p.ID, old)
	row.Insert(p.ID, newIv)
	if dim == 0 {
		p.WLo[block], p.WHi[block] = newIv.Lo, newIv.Hi
	} else {
		p.HLo[block], p.HHi[block] = newIv.Lo, newIv.Hi
	}
	s.terms[p.ID] = s.coverageTerm(p)
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
	n := s.circuit.N()
	first := true
	for i := 0; i < n; i++ {
		for dim := 0; dim < 2; dim++ {
			var ids []int
			if dim == 0 {
				ids = s.wRows[i].Lookup(ws[i])
			} else {
				ids = s.hRows[i].Lookup(hs[i])
			}
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
