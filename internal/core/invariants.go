package core

import (
	"fmt"
	"math"
)

// CheckInvariants verifies the structural guarantees of the multi-placement
// structure exhaustively:
//
//  1. every row satisfies the Figure-3 list invariants;
//  2. every live placement has non-empty intervals inside designer bounds,
//     is geometrically legal at maximum dimensions, and is registered in
//     every row exactly on its validity intervals;
//  3. no two live placements' dimension boxes overlap (the eq. 5 guarantee);
//  4. no row references a deleted placement;
//  5. every live placement's cached coverage term equals its recomputed
//     term bit for bit.
//
// It is O(P²·N + rows) and intended for tests and failure injection, not
// hot paths.
func (s *Structure) CheckInvariants() error {
	n := s.circuit.N()
	for i := 0; i < n; i++ {
		if err := s.wRows[i].CheckInvariants(); err != nil {
			return fmt.Errorf("width row %d: %w", i, err)
		}
		if err := s.hRows[i].CheckInvariants(); err != nil {
			return fmt.Errorf("height row %d: %w", i, err)
		}
	}

	live := 0
	for id, p := range s.placements {
		if p == nil {
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
		for i := 0; i < n; i++ {
			if err := checkRegistered(s, id, i); err != nil {
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
	for i := 0; i < n; i++ {
		for _, span := range s.wRows[i].Snapshot() {
			for _, id := range span.IDs {
				p := s.Get(id)
				if p == nil {
					return fmt.Errorf("core: width row %d references deleted placement %d", i, id)
				}
				if !p.WIv(i).ContainsInterval(span.Iv) {
					return fmt.Errorf("core: width row %d registers placement %d on %v outside its box %v",
						i, id, span.Iv, p.WIv(i))
				}
			}
		}
		for _, span := range s.hRows[i].Snapshot() {
			for _, id := range span.IDs {
				p := s.Get(id)
				if p == nil {
					return fmt.Errorf("core: height row %d references deleted placement %d", i, id)
				}
				if !p.HIv(i).ContainsInterval(span.Iv) {
					return fmt.Errorf("core: height row %d registers placement %d on %v outside its box %v",
						i, id, span.Iv, p.HIv(i))
				}
			}
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

// checkRegistered verifies placement id appears in block i's rows exactly on
// its validity intervals: present at both endpoints, absent just outside.
func checkRegistered(s *Structure, id, i int) error {
	p := s.placements[id]
	wiv, hiv := p.WIv(i), p.HIv(i)
	for _, probe := range []struct {
		row    interface{ Lookup(int) []int }
		v      int
		wantIn bool
		what   string
	}{
		{s.wRows[i], wiv.Lo, true, "w.Lo"},
		{s.wRows[i], wiv.Hi, true, "w.Hi"},
		{s.wRows[i], wiv.Lo - 1, false, "w.Lo-1"},
		{s.wRows[i], wiv.Hi + 1, false, "w.Hi+1"},
		{s.hRows[i], hiv.Lo, true, "h.Lo"},
		{s.hRows[i], hiv.Hi, true, "h.Hi"},
		{s.hRows[i], hiv.Lo - 1, false, "h.Lo-1"},
		{s.hRows[i], hiv.Hi + 1, false, "h.Hi+1"},
	} {
		if got := containsInt(probe.row.Lookup(probe.v), id); got != probe.wantIn {
			return fmt.Errorf("core: placement %d block %d: registered=%v at %s, want %v",
				id, i, got, probe.what, probe.wantIn)
		}
	}
	return nil
}

func containsInt(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}
