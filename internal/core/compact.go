package core

import (
	"slices"

	"mps/internal/placement"
)

// Overlap resolution fragments placements: every fork leaves two (or, after
// repeated conflicts, many) stored placements with identical coordinates
// whose dimension boxes abut. Compact re-merges such fragments, shrinking
// the structure without changing what any query returns — smaller Table 2
// "Placements" counts and faster row walks for free.
//
// Two live placements merge when they have identical block coordinates and
// identical validity intervals in every row except exactly one, where the
// intervals abut ([a,b] and [b+1,c]). The merged box is then exactly the
// set union of the two boxes, so disjointness against all other placements
// is preserved by construction. Costs are combined conservatively: AvgCost
// is the interval-length-weighted mean, BestCost/BestW/BestH come from the
// better half.

// Compact merges abutting fragments until none remain and returns the
// number of merges performed. Each merge is of the live pair (a, b),
// a < b, that comes first in (a, b) order among the mergeable pairs, as
// tryMerge(a, b), and the merged piece takes the next ID: the merges of a
// scan that restarts after every one.
func (s *Structure) Compact() int {
	merges := 0
	for {
		a, b := s.firstMergeable()
		if a < 0 {
			s.rebaseExps()
			return merges
		}
		m := tryMerge(s.placements[a], s.placements[b])
		s.delete(a)
		s.delete(b)
		// Union of two previously-disjoint boxes: store cannot fail on
		// overlap grounds, and interval bounds are inherited.
		if _, err := s.store(m); err != nil {
			// Restore is impossible mid-merge; surface loudly. This cannot
			// happen for boxes that were stored before.
			panic("core: Compact failed to store merged placement: " + err.Error())
		}
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
		p, q := s.placements[a], s.placements[b]
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
		p, hi := s.placements[ids[lo]], lo+1
		for hi < len(ids) && sameCoords(p, s.placements[ids[hi]]) {
			hi++
		}
		group := ids[lo:hi]
		lo = hi
	scan:
		for x, ga := range group {
			for _, gb := range group[x+1:] {
				if row, _ := mergeRow(s.placements[ga], s.placements[gb]); row >= 0 {
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
func sameCoords(p, q *placement.Placement) bool {
	return slices.Equal(p.X, q.X) && slices.Equal(p.Y, q.Y)
}

// tryMerge returns the merged placement when p and q are mergeable, nil
// otherwise. The merge copies p, so the lower ID goes first.
func tryMerge(p, q *placement.Placement) *placement.Placement {
	diffBlock, diffDim := mergeRow(p, q)
	if diffBlock < 0 {
		return nil
	}
	m := p.Clone()
	m.ID = -1
	var lenP, lenQ int
	if diffDim == 0 {
		lenP = p.WHi[diffBlock] - p.WLo[diffBlock] + 1
		lenQ = q.WHi[diffBlock] - q.WLo[diffBlock] + 1
		m.WLo[diffBlock] = min(p.WLo[diffBlock], q.WLo[diffBlock])
		m.WHi[diffBlock] = max(p.WHi[diffBlock], q.WHi[diffBlock])
	} else {
		lenP = p.HHi[diffBlock] - p.HLo[diffBlock] + 1
		lenQ = q.HHi[diffBlock] - q.HLo[diffBlock] + 1
		m.HLo[diffBlock] = min(p.HLo[diffBlock], q.HLo[diffBlock])
		m.HHi[diffBlock] = max(p.HHi[diffBlock], q.HHi[diffBlock])
	}
	total := float64(lenP + lenQ)
	m.AvgCost = (p.AvgCost*float64(lenP) + q.AvgCost*float64(lenQ)) / total
	better := p
	if q.BestCost < p.BestCost {
		better = q
	}
	m.BestCost = better.BestCost
	if better.BestW != nil {
		m.BestW = append([]int(nil), better.BestW...)
		m.BestH = append([]int(nil), better.BestH...)
	}
	return m
}

// mergeRow returns the one row (block, dim 0 for width or 1 for height)
// in which p and q differ when they are mergeable, and block −1 when they
// are not: different coordinates, two differing rows, intervals that do
// not abut, or identical boxes.
func mergeRow(p, q *placement.Placement) (block, dim int) {
	if !sameCoords(p, q) {
		return -1, -1
	}
	// Find the single differing row; all others must be identical.
	block, dim = -1, -1
	for i := range p.X {
		for d := 0; d < 2; d++ {
			var pl, ph, ql, qh int
			if d == 0 {
				pl, ph, ql, qh = p.WLo[i], p.WHi[i], q.WLo[i], q.WHi[i]
			} else {
				pl, ph, ql, qh = p.HLo[i], p.HHi[i], q.HLo[i], q.HHi[i]
			}
			if pl == ql && ph == qh {
				continue
			}
			if block >= 0 {
				return -1, -1 // two differing rows: union is not a box
			}
			// The differing intervals must abut.
			if ph+1 != ql && qh+1 != pl {
				return -1, -1
			}
			block, dim = i, d
		}
	}
	// Identical boxes (block still −1) cannot coexist (disjointness
	// invariant); they are non-mergeable, and CheckInvariants flags the
	// corruption.
	return block, dim
}
