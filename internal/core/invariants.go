package core

import (
	"fmt"
	"math"
	"slices"

	"mps/internal/geom"
	"mps/internal/intervalmap"
	"mps/internal/placement"
)

// CheckInvariants verifies the structural guarantees of the multi-placement
// structure exhaustively:
//
//  1. every row satisfies the Figure-3 list invariants;
//  2. every live placement has non-empty intervals inside designer bounds,
//     is geometrically legal at maximum dimensions, is recorded in the box
//     table exactly as its intervals, and is registered in every row
//     exactly on its validity intervals;
//  3. every deleted ID's box table entry is emptied;
//  4. no two live placements' dimension boxes overlap (the eq. 5 guarantee);
//  5. no row references a deleted placement;
//  6. every live placement's cached coverage term equals its recomputed
//     term bit for bit.
//
// It is O(P²·N + rows) and intended for tests and failure injection, not
// hot paths.
func (s *Structure) CheckInvariants() error {
	n := s.circuit.N()
	if len(s.boxes) != 4*n*len(s.placements) {
		return fmt.Errorf("core: box table holds %d values for %d placement slots of %d blocks",
			len(s.boxes), len(s.placements), n)
	}
	rows := s.view()
	for r, row := range rows {
		if err := row.CheckInvariants(); err != nil {
			return fmt.Errorf("%s row %d: %w", dimName(r), r/2, err)
		}
	}

	live := 0
	for id, p := range s.placements {
		if p == nil {
			box := s.box(id)
			for k := 0; k < len(box); k += 2 {
				if (geom.Interval{Lo: box[k], Hi: box[k+1]}) != emptyBox {
					return fmt.Errorf("core: deleted placement %d still registered in the box table", id)
				}
			}
			continue
		}
		live++
		if p.ID != id {
			return fmt.Errorf("core: placement at slot %d has ID %d", id, p.ID)
		}
		if p.BoxEmpty() {
			return fmt.Errorf("core: placement %d has an empty dimension box", id)
		}
		if err := p.CheckIntervalsWithin(s.circuit); err != nil {
			return fmt.Errorf("core: placement %d: %w", id, err)
		}
		if err := p.CheckLegal(s.fp); err != nil {
			return fmt.Errorf("core: placement %d: %w", id, err)
		}
		box := s.box(id)
		for i := 0; i < n; i++ {
			if got, want := [4]int(box[4*i:4*i+4]), [4]int{p.WLo[i], p.WHi[i], p.HLo[i], p.HHi[i]}; got != want {
				return fmt.Errorf("core: placement %d block %d: registered (w, h) = %v in the box table, placement has %v",
					id, i, got, want)
			}
			if err := checkRegistered(rows, p, i); err != nil {
				return err
			}
		}
	}
	if live != s.alive {
		return fmt.Errorf("core: alive count %d, found %d live placements", s.alive, live)
	}

	// Pairwise disjointness of dimension boxes.
	ids := s.IDs()
	for a := 0; a < len(ids); a++ {
		for b := a + 1; b < len(ids); b++ {
			p, q := s.placements[ids[a]], s.placements[ids[b]]
			if p.BoxOverlaps(q) {
				return fmt.Errorf("core: placements %d and %d have overlapping dimension boxes",
					ids[a], ids[b])
			}
		}
	}

	// Rows must reference only live placements, and only inside the
	// placement's own validity interval (no stray registrations).
	var stray error
	for r, row := range rows {
		row.Visit(func(span geom.Interval, ids []int) {
			for _, id := range ids {
				if stray != nil {
					return
				}
				p := s.Get(id)
				if p == nil {
					stray = fmt.Errorf("core: %s row %d references deleted placement %d", dimName(r), r/2, id)
				} else if iv := rowInterval(p, r); !iv.ContainsInterval(span) {
					stray = fmt.Errorf("core: %s row %d registers placement %d on %v outside its box %v",
						dimName(r), r/2, id, span, iv)
				}
			}
		})
		if stray != nil {
			return stray
		}
	}

	if len(s.terms) != len(s.placements) {
		return fmt.Errorf("core: %d coverage terms for %d placement slots", len(s.terms), len(s.placements))
	}
	for id, p := range s.placements {
		if p == nil {
			continue
		}
		if want := s.coverageTerm(p); math.Float64bits(s.terms[id]) != math.Float64bits(want) {
			return fmt.Errorf("core: placement %d caches coverage term %v, its box gives %v", id, s.terms[id], want)
		}
	}
	return nil
}

// dimName names row r's dimension: even rows are widths, odd rows heights.
func dimName(r int) string {
	if r%2 == 0 {
		return "width"
	}
	return "height"
}

// rowInterval returns p's interval in row r.
func rowInterval(p *placement.Placement, r int) geom.Interval {
	if r%2 == 0 {
		return p.WIv(r / 2)
	}
	return p.HIv(r / 2)
}

// checkRegistered verifies placement p appears in block i's rows exactly on
// its validity intervals: present at both endpoints, absent just outside.
func checkRegistered(rows []*intervalmap.Row, p *placement.Placement, i int) error {
	wiv, hiv := p.WIv(i), p.HIv(i)
	w, h := rows[2*i], rows[2*i+1]
	for _, probe := range []struct {
		row    *intervalmap.Row
		v      int
		wantIn bool
		what   string
	}{
		{w, wiv.Lo, true, "w.Lo"},
		{w, wiv.Hi, true, "w.Hi"},
		{w, wiv.Lo - 1, false, "w.Lo-1"},
		{w, wiv.Hi + 1, false, "w.Hi+1"},
		{h, hiv.Lo, true, "h.Lo"},
		{h, hiv.Hi, true, "h.Hi"},
		{h, hiv.Lo - 1, false, "h.Lo-1"},
		{h, hiv.Hi + 1, false, "h.Hi+1"},
	} {
		if got := slices.Contains(probe.row.Lookup(probe.v), p.ID); got != probe.wantIn {
			return fmt.Errorf("core: placement %d block %d: registered=%v at %s, want %v",
				p.ID, i, got, probe.what, probe.wantIn)
		}
	}
	return nil
}
