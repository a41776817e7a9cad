package core

import (
	"fmt"

	"mps/internal/geom"
	"mps/internal/placement"
)

// This file implements the paper's Resolve Overlaps step (§3.1.3): before a
// new placement enters the structure, every stored placement whose
// 2N-dimensional dimension box intersects the newcomer's box must lose the
// shared region, so that eq. 5 (at most one placement per dimension vector)
// keeps holding.
//
// For each conflicting pair the placement with the higher average cost (the
// "loser") is shrunk in exactly one row — the row with the smallest overlap,
// which keeps the most box volume. Shrinking removes the winner's interval
// from the loser's:
//
//   - loser's interval extends past the winner on one side: truncate it;
//   - loser's interval strictly contains the winner's: fork the loser into
//     two placements, one on each side (the paper's fork case);
//   - loser's interval is inside the winner's in every overlapping row:
//     the loser's box is engulfed and the loser is deleted.

// ResolveRowStrategy selects the row in which a conflict loser is shrunk.
type ResolveRowStrategy int

const (
	// SmallestOverlapRow shrinks in the row with the least overlap,
	// preserving the most box volume — the paper's choice (default).
	SmallestOverlapRow ResolveRowStrategy = iota
	// FirstOverlapRow shrinks in the first overlapping row found — the
	// ablation baseline (BenchmarkAblationResolveRow).
	FirstOverlapRow
)

// InsertStats reports what an Insert did, for generation telemetry.
type InsertStats struct {
	StoredIDs     []int // IDs the candidate ended up stored under (after forks)
	CandidateDied bool  // candidate fully engulfed by better placements
	StoredShrunk  int   // stored placements narrowed in one row
	StoredForked  int   // stored placements split into two
	StoredDeleted int   // stored placements engulfed and removed
}

// Insert resolves the candidate against all stored placements and stores
// what survives. The candidate may be stored as-is, shrunk, forked into
// multiple placements, or dropped entirely if better placements already
// cover its whole box. Insert owns the candidate afterwards; callers must
// not reuse it.
func (s *Structure) Insert(cand *placement.Placement) (InsertStats, error) {
	var stats InsertStats
	pending := []*placement.Placement{cand}
	for len(pending) > 0 {
		p := pending[len(pending)-1]
		pending = pending[:len(pending)-1]
		survived, pieces, err := s.resolveCandidate(p, &stats)
		if err != nil {
			return stats, err
		}
		pending = append(pending, pieces...)
		if survived == nil {
			continue
		}
		id, err := s.store(survived)
		if err != nil {
			return stats, err
		}
		stats.StoredIDs = append(stats.StoredIDs, id)
	}
	if len(stats.StoredIDs) == 0 {
		stats.CandidateDied = true
	}
	s.rebaseExps()
	return stats, nil
}

// resolveCandidate eliminates all conflicts between p and stored placements.
// It returns the surviving (possibly shrunk) candidate or nil if p died,
// plus any forked-off pieces of p that still need independent resolution.
func (s *Structure) resolveCandidate(p *placement.Placement, stats *InsertStats) (*placement.Placement, []*placement.Placement, error) {
	var pieces []*placement.Placement
	// Collect current conflicts once; boxes only ever shrink during
	// resolution, so no new conflicts can appear mid-loop.
	conflicts := s.conflicting(p)
	for _, qid := range conflicts {
		q := s.placements[qid]
		if q == nil || !p.BoxOverlaps(q) {
			continue // q was deleted or already disjoint after earlier shrinks
		}
		// Higher average cost loses the region (ties keep the incumbent).
		if p.AvgCost >= q.AvgCost {
			left, right, died := splitLoser(p, q, s.resolveStrategy)
			if died {
				stats.CandidateDied = true
				return nil, pieces, nil
			}
			if left != nil && right != nil {
				// Fork: keep resolving the left piece here; the right piece
				// restarts resolution from scratch.
				pieces = append(pieces, right)
				p = left
				continue
			}
			if left != nil {
				p = left
			} else {
				p = right
			}
		} else {
			if err := s.shrinkStored(q, p, stats); err != nil {
				return nil, pieces, err
			}
		}
	}
	return p, pieces, nil
}

// conflicting returns the IDs of stored placements whose boxes overlap p's,
// ascending. It scans the flat box table in ID order: two boxes overlap
// exactly when their intervals overlap in every one of the 2N rows, so
// most entries are rejected at their first row, and an emptied entry
// (a deleted ID) at once. A p with an empty interval overlaps nothing, as
// in BoxOverlaps. The result is a scratch buffer the next call overwrites;
// no caller holds one result across another call.
func (s *Structure) conflicting(p *placement.Placement) []int {
	out := s.conflicts[:0]
	if p.BoxEmpty() {
		return out
	}
	q := s.probe[:0]
	for i := range p.X {
		q = append(q, p.WLo[i], p.WHi[i], p.HLo[i], p.HHi[i])
	}
	s.probe = q
	w := len(q)
	for id, off := 0, 0; off < len(s.boxes); id, off = id+1, off+w {
		b := s.boxes[off : off+w : off+w]
		k := 0
		for k < w && b[k] <= q[k+1] && q[k] <= b[k+1] {
			k += 2
		}
		if k == w && s.placements[id] != nil {
			out = append(out, id)
		}
	}
	s.conflicts = out
	return out
}

// chooseRow picks the row in which to shrink the loser: among rows where
// both boxes overlap, the smallest overlap wins (or the first overlap under
// the ablation strategy), with rows that would not annihilate the loser
// (loser interval not contained in winner's) strongly preferred. Returns
// block index, dim (0=w, 1=h), and whether every overlapping row
// annihilates the loser (engulfed case).
func chooseRow(loser, winner *placement.Placement, strategy ResolveRowStrategy) (block, dim int, engulfed bool) {
	bestBlock, bestDim := -1, -1
	bestLen := int(^uint(0) >> 1)
	foundSafe := false
	for i := range loser.X {
		for d := 0; d < 2; d++ {
			var liv, wiv geom.Interval
			if d == 0 {
				liv, wiv = loser.WIv(i), winner.WIv(i)
			} else {
				liv, wiv = loser.HIv(i), winner.HIv(i)
			}
			ov := liv.OverlapLen(wiv)
			if ov == 0 {
				continue
			}
			safe := !wiv.ContainsInterval(liv)
			if safe && !foundSafe {
				// First safe row trumps any unsafe row found so far.
				foundSafe = true
				bestBlock, bestDim, bestLen = i, d, ov
				if strategy == FirstOverlapRow {
					return bestBlock, bestDim, false
				}
				continue
			}
			if safe == foundSafe && ov < bestLen {
				bestBlock, bestDim, bestLen = i, d, ov
			}
		}
	}
	if bestBlock < 0 {
		// No overlapping row at all — caller should have checked BoxOverlaps.
		return -1, -1, false
	}
	return bestBlock, bestDim, !foundSafe
}

// splitLoser removes the winner's interval from the loser in the chosen row
// and returns the surviving pieces as fresh placements (left/right may be
// nil; both nil with died=true when the loser is engulfed). The loser
// placement itself is not mutated.
func splitLoser(loser, winner *placement.Placement, strategy ResolveRowStrategy) (left, right *placement.Placement, died bool) {
	block, dim, engulfed := chooseRow(loser, winner, strategy)
	if block < 0 || engulfed {
		return nil, nil, true
	}
	var liv, wiv geom.Interval
	if dim == 0 {
		liv, wiv = loser.WIv(block), winner.WIv(block)
	} else {
		liv, wiv = loser.HIv(block), winner.HIv(block)
	}
	res := liv.Subtract(wiv)
	mk := func(iv geom.Interval) *placement.Placement {
		if iv.Empty() {
			return nil
		}
		c := loser.Clone()
		c.ID = -1
		if dim == 0 {
			c.WLo[block], c.WHi[block] = iv.Lo, iv.Hi
		} else {
			c.HLo[block], c.HHi[block] = iv.Lo, iv.Hi
		}
		return c
	}
	left, right = mk(res.Left), mk(res.Right)
	if left == nil && right == nil {
		return nil, nil, true
	}
	return left, right, false
}

// shrinkStored removes the candidate's region from a stored placement,
// updating rows in place (shrink), replacing it with two stored pieces
// (fork), or deleting it (engulfed).
func (s *Structure) shrinkStored(q, winner *placement.Placement, stats *InsertStats) error {
	block, dim, engulfed := chooseRow(q, winner, s.resolveStrategy)
	if block < 0 {
		return fmt.Errorf("core: shrinkStored called on non-overlapping placements %d", q.ID)
	}
	if engulfed {
		s.delete(q.ID)
		stats.StoredDeleted++
		return nil
	}
	var liv, wiv geom.Interval
	if dim == 0 {
		liv, wiv = q.WIv(block), winner.WIv(block)
	} else {
		liv, wiv = q.HIv(block), winner.HIv(block)
	}
	res := liv.Subtract(wiv)
	switch {
	case res.Left.Empty() && res.Right.Empty():
		s.delete(q.ID)
		stats.StoredDeleted++
	case res.Left.Empty() || res.Right.Empty():
		keep := res.Left
		if keep.Empty() {
			keep = res.Right
		}
		s.shrinkRow(q, block, dim, keep)
		stats.StoredShrunk++
	default:
		// Fork: replace q by two narrowed copies. Both inherit q's costs,
		// since they hold the same anchors the BDIO evaluated, and cannot
		// conflict with anything: each box is a subset of q's box minus
		// the winner's region.
		s.delete(q.ID)
		for _, iv := range []geom.Interval{res.Left, res.Right} {
			c := q.Clone()
			c.ID = -1
			if dim == 0 {
				c.WLo[block], c.WHi[block] = iv.Lo, iv.Hi
			} else {
				c.HLo[block], c.HHi[block] = iv.Lo, iv.Hi
			}
			if _, err := s.store(c); err != nil {
				return err
			}
		}
		stats.StoredForked++
	}
	return nil
}
