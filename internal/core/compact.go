package core

import (
	"slices"

	"mps/internal/geom"
)

// Compact merges stored placements whose dimension boxes abut and whose
// coordinates are identical, without changing what any query returns. A
// fork in overlap resolution never leaves such a pair: the winner's
// interval lies between the loser's two pieces, and later shrinks only
// widen that gap. The merges that do occur join placements from different
// explorer iterations that reached the same coordinates on abutting boxes
// — rare: 3 merges in 24 anneal runs at the backend's default budgets,
// all on circ01. A merge leaves one stored placement instead of two (the
// Table 2 "Placements" count), and its row drops the span boundary where
// the two boxes met unless another placement's interval breaks there too,
// so the compiled index holds no more spans.
//
// Two live placements merge when they have identical block coordinates and
// identical validity intervals in every row except exactly one, where the
// intervals abut ([a,b] and [b+1,c]). The merged box is then exactly the
// set union of the two boxes, so disjointness against all other placements
// is preserved by construction, and storing it cannot fail. Costs are
// combined conservatively: AvgCost is the interval-length-weighted mean,
// BestCost/BestW/BestH come from the better half.

// Compact merges such pairs until none remain and returns the
// number of merges performed. Each merge is of the live pair (a, b),
// a < b, that comes first in (a, b) order among the mergeable pairs, as
// merge(a, b), and the merged piece takes the next ID: the merges of a
// scan that restarts after every one.
func (s *Structure) Compact() int {
	merges := 0
	for {
		a, b := s.firstMergeable()
		if a < 0 {
			s.rebaseExps()
			return merges
		}
		s.merge(a, b)
		merges++
	}
}

// firstMergeable returns the mergeable live pair (a, b), a < b, that comes
// first in (a, b) order, and -1, -1 when no pair merges. Only placements
// with identical coordinates can merge, so it sorts the live IDs by
// coordinates into groups, ascending within each, and checks pairs within
// a group only: each group's first mergeable pair in scan order is its
// first in (a, b) order, and the answer is the one with the lowest a. That
// is one sort and O(Σ group²) pair checks per call, with one allocation.
func (s *Structure) firstMergeable() (a, b int) {
	ids := s.IDs()
	slices.SortFunc(ids, func(a, b int) int {
		p, q := s.recs[a], s.recs[b]
		if c := slices.Compare(p.X, q.X); c != 0 {
			return c
		}
		if c := slices.Compare(p.Y, q.Y); c != 0 {
			return c
		}
		return a - b
	})
	a, b = -1, -1
	for lo := 0; lo < len(ids); {
		p, hi := s.recs[ids[lo]], lo+1
		for hi < len(ids) && sameCoords(p, s.recs[ids[hi]]) {
			hi++
		}
		group := ids[lo:hi]
		lo = hi
	scan:
		for x, ga := range group {
			for _, gb := range group[x+1:] {
				if s.mergeRow(ga, gb) >= 0 {
					if a < 0 || ga < a {
						a, b = ga, gb
					}
					break scan
				}
			}
		}
	}
	return a, b
}

// sameCoords reports whether p and q anchor every block at the same place.
func sameCoords(p, q *record) bool {
	return slices.Equal(p.X, q.X) && slices.Equal(p.Y, q.Y)
}

// merge replaces the mergeable live placements a < b by their union under
// the next ID, with a new record, since it combines costs, that shares the
// halves' slices: a's anchors, the better half's BestCost, and its BestW
// and BestH when it has them (a's otherwise).
func (s *Structure) merge(a, b int) {
	r := s.mergeRow(a, b)
	ra, rb := s.recs[a], s.recs[b]
	box := append(s.fork[:0], s.box(a)...)
	s.fork = box
	ia, ib := boxRow(box, r), boxRow(s.box(b), r)
	lenA, lenB := ia.Hi-ia.Lo+1, ib.Hi-ib.Lo+1
	setRow(box, r, geom.Interval{Lo: min(ia.Lo, ib.Lo), Hi: max(ia.Hi, ib.Hi)})
	m := &record{
		X: ra.X, Y: ra.Y,
		AvgCost: (ra.AvgCost*float64(lenA) + rb.AvgCost*float64(lenB)) / float64(lenA+lenB),
		BestW:   ra.BestW, BestH: ra.BestH,
	}
	better := ra
	if rb.BestCost < ra.BestCost {
		better = rb
	}
	m.BestCost = better.BestCost
	if better.BestW != nil {
		m.BestW, m.BestH = better.BestW, better.BestH
	}
	s.delete(a)
	s.delete(b)
	s.store(m, box)
}

// mergeRow returns the one row in which live placements a and b differ
// when they are mergeable, and −1 when they are not: different
// coordinates, two differing rows, intervals that do not abut, or
// identical boxes.
func (s *Structure) mergeRow(a, b int) int {
	if !sameCoords(s.recs[a], s.recs[b]) {
		return -1
	}
	pa, pb := s.box(a), s.box(b)
	row := -1
	for r := 0; r < len(pa)/2; r++ {
		p, q := boxRow(pa, r), boxRow(pb, r)
		if p == q {
			continue
		}
		if row >= 0 {
			return -1 // two differing rows: union is not a box
		}
		// The differing intervals must abut.
		if p.Hi+1 != q.Lo && q.Hi+1 != p.Lo {
			return -1
		}
		row = r
	}
	// Identical boxes (row still −1) cannot coexist (disjointness
	// invariant); they are non-mergeable, and CheckInvariants flags the
	// corruption.
	return row
}
