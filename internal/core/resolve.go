package core

import (
	"math"
	"slices"

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
//
// Resolution cuts boxes only, the candidate's and the box table's entries:
// the pieces of one candidate share its record, and the two pieces of a
// forked stored placement the loser's.

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
// cover its whole box; every piece stored shares one record of its
// anchors, costs and best dimensions. A candidate with an empty interval
// or one outside its designer bounds is refused before anything changes.
// Insert keeps no reference to the candidate.
func (s *Structure) Insert(cand *placement.Placement) (InsertStats, error) {
	var stats InsertStats
	if err := s.checkCandidate(cand); err != nil {
		return stats, err
	}
	s.cand = appendBox(s.cand[:0], cand)
	var rec *record
	pending := [][]int{s.cand}
	for len(pending) > 0 {
		box := pending[len(pending)-1]
		pending = pending[:len(pending)-1]
		var survived bool
		survived, pending = s.resolveCandidate(box, cand.AvgCost, pending, &stats)
		if !survived {
			continue
		}
		if rec == nil {
			rec = newRecord(cand)
		}
		stats.StoredIDs = append(stats.StoredIDs, s.store(rec, box))
	}
	if len(stats.StoredIDs) == 0 {
		stats.CandidateDied = true
	}
	s.rebaseExps()
	return stats, nil
}

// resolveCandidate eliminates all conflicts between a piece of the
// candidate, whose average cost is avg, and the stored placements, cutting
// box in place. It reports whether the piece survived, and appends to
// pending the pieces forked off it, which still need independent
// resolution.
func (s *Structure) resolveCandidate(box []int, avg float64, pending [][]int, stats *InsertStats) (bool, [][]int) {
	// Collect current conflicts once; boxes only ever shrink during
	// resolution, so no new conflicts can appear mid-loop.
	for _, qid := range s.conflicting(box) {
		q := s.recs[qid]
		if q == nil || !boxesOverlap(box, s.box(qid)) {
			continue // q was deleted or already disjoint after earlier shrinks
		}
		// Higher average cost loses the region (ties keep the incumbent).
		if avg >= q.AvgCost {
			right, died := splitLoser(box, s.box(qid))
			if died {
				stats.CandidateDied = true
				return false, pending
			}
			if right != nil {
				// Fork: keep resolving the left piece here; the right
				// piece restarts resolution from scratch.
				pending = append(pending, right)
			}
		} else {
			s.shrinkStored(qid, box, stats)
		}
	}
	return true, pending
}

// conflicting returns the IDs of stored placements whose boxes overlap the
// box q, ascending. It scans the flat box table in ID order: two boxes
// overlap exactly when their intervals overlap in every one of the 2N
// rows, so most entries are rejected at their first row, and an emptied
// entry (a deleted ID) at once. q must have no empty interval, which
// checkCandidate ensures before any caller scans. The result is a scratch
// buffer the next call overwrites; no caller holds one result across
// another call.
func (s *Structure) conflicting(q []int) []int {
	out := s.conflicts[:0]
	w := len(q)
	for id, off := 0, 0; off < len(s.boxes); id, off = id+1, off+w {
		b := s.boxes[off : off+w : off+w]
		k := 0
		for k < w && b[k] <= q[k+1] && q[k] <= b[k+1] {
			k += 2
		}
		if k == w && s.recs[id] != nil {
			out = append(out, id)
		}
	}
	s.conflicts = out
	return out
}

// chooseRow picks the row in which to shrink the loser's box: among the
// rows where the two boxes overlap, the smallest overlap wins — the
// paper's choice, which keeps the most box volume — with rows that would
// not annihilate the loser (loser interval not contained in the winner's)
// strongly preferred. It returns the row (2i for block i's width, 2i+1
// for its height) and whether every overlapping row annihilates the loser
// (engulfed case).
func chooseRow(loser, winner []int) (row int, engulfed bool) {
	row, bestLen, foundSafe := -1, math.MaxInt, false
	for r := 0; r < len(loser)/2; r++ {
		liv, wiv := boxRow(loser, r), boxRow(winner, r)
		ov := liv.OverlapLen(wiv)
		if ov == 0 {
			continue
		}
		safe := !wiv.ContainsInterval(liv)
		if safe && !foundSafe {
			// First safe row trumps any unsafe row found so far.
			foundSafe = true
			row, bestLen = r, ov
			continue
		}
		if safe == foundSafe && ov < bestLen {
			row, bestLen = r, ov
		}
	}
	return row, !foundSafe
}

// splitLoser removes the winner's interval from the loser's box in the
// chosen row, in place: the loser keeps its left piece, or its only one,
// and a fork returns the right piece as a new box. died reports an
// engulfed loser, left unchanged. In a row chooseRow calls safe, the
// winner's interval leaves at least one piece.
func splitLoser(loser, winner []int) (right []int, died bool) {
	r, engulfed := chooseRow(loser, winner)
	if engulfed {
		return nil, true
	}
	res := boxRow(loser, r).Subtract(boxRow(winner, r))
	switch {
	case res.Left.Empty():
		setRow(loser, r, res.Right)
	case res.Right.Empty():
		setRow(loser, r, res.Left)
	default:
		right = slices.Clone(loser)
		setRow(right, r, res.Right)
		setRow(loser, r, res.Left)
	}
	return right, false
}

// shrinkStored removes the winner's region from stored placement id:
// it narrows the chosen row in place (shrink), replaces the placement by
// two stored pieces (fork), or deletes it (engulfed).
func (s *Structure) shrinkStored(id int, winner []int, stats *InsertStats) {
	box := s.box(id)
	r, engulfed := chooseRow(box, winner)
	if engulfed {
		s.delete(id)
		stats.StoredDeleted++
		return
	}
	res := boxRow(box, r).Subtract(boxRow(winner, r))
	switch {
	case res.Left.Empty():
		s.shrinkRow(id, r, res.Right)
		stats.StoredShrunk++
	case res.Right.Empty():
		s.shrinkRow(id, r, res.Left)
		stats.StoredShrunk++
	default:
		// Fork: replace the placement by two narrowed pieces of its
		// record, built in one scratch box. They hold the anchors the
		// BDIO evaluated, so they keep its costs, and cannot conflict
		// with anything: each box is a subset of the old one minus the
		// winner's region.
		rec := s.recs[id]
		piece := append(s.fork[:0], box...)
		s.fork = piece
		s.delete(id)
		setRow(piece, r, res.Left)
		s.store(rec, piece)
		setRow(piece, r, res.Right)
		s.store(rec, piece)
		stats.StoredForked++
	}
}

// setRow sets row r's interval of a box.
func setRow(box []int, r int, iv geom.Interval) {
	box[2*r], box[2*r+1] = iv.Lo, iv.Hi
}
