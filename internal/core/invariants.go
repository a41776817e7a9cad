package core

import (
	"fmt"
	"math"

	"mps/internal/geom"
)

// CheckInvariants verifies the structural guarantees of the multi-placement
// structure exhaustively:
//
//  1. every row's spans are ascending, disjoint and non-empty, and each
//     carries at least one placement;
//  2. every live placement has non-empty intervals inside designer bounds,
//     is geometrically legal at maximum dimensions with the circuit's
//     spacing halos (checked on Get's copy), and is registered in every
//     row exactly on its validity intervals: present at both ends, absent
//     just outside;
//  3. every deleted ID's box table entry is emptied;
//  4. no two live placements' dimension boxes overlap (the eq. 5 guarantee);
//  5. no span carries a placement outside that placement's interval;
//  6. every live placement's cached coverage term equals its recomputed
//     term bit for bit;
//  7. while the coverage exponentials are marked valid, their base is the
//     largest live term and every live exponential equals
//     Exp2(term − base) bit for bit.
//
// The rows are the compiled index's, swept afresh from the box table and
// not cached, so a check publishes nothing. A floorplan past the int32
// range, which the compiled tables cannot hold, fails first with Load's
// error. It is O(P²·N + spans·P) and intended for tests and failure
// injection, not hot paths.
func (s *Structure) CheckInvariants() error {
	if err := checkFloorplan(s.fp); err != nil {
		return err
	}
	n := s.circuit.N()
	if len(s.boxes) != 4*n*len(s.recs) {
		return fmt.Errorf("core: box table holds %d values for %d placement slots of %d blocks",
			len(s.boxes), len(s.recs), n)
	}

	live := 0
	for id, r := range s.recs {
		if r == nil {
			box := s.box(id)
			for k := 0; k < len(box); k += 2 {
				if (geom.Interval{Lo: box[k], Hi: box[k+1]}) != emptyBox {
					return fmt.Errorf("core: deleted placement %d still registered in the box table", id)
				}
			}
			continue
		}
		live++
		p := s.Get(id)
		if p.BoxEmpty() {
			return fmt.Errorf("core: placement %d has an empty dimension box", id)
		}
		if err := p.CheckIntervalsWithin(s.circuit); err != nil {
			return fmt.Errorf("core: placement %d: %w", id, err)
		}
		if err := p.CheckLegal(s.fp); err != nil {
			return fmt.Errorf("core: placement %d: %w", id, err)
		}
	}
	if live != s.alive {
		return fmt.Errorf("core: alive count %d, found %d live placements", s.alive, live)
	}

	cs := compile(s)
	if err := s.checkSpans(cs); err != nil {
		return err
	}
	for slot, id := range cs.slotID {
		if err := checkRegistered(cs, slot, int(id), s.box(int(id))); err != nil {
			return err
		}
	}

	// Pairwise disjointness of dimension boxes.
	ids := s.IDs()
	for a := 0; a < len(ids); a++ {
		for b := a + 1; b < len(ids); b++ {
			if boxesOverlap(s.box(ids[a]), s.box(ids[b])) {
				return fmt.Errorf("core: placements %d and %d have overlapping dimension boxes",
					ids[a], ids[b])
			}
		}
	}

	if len(s.terms) != len(s.recs) {
		return fmt.Errorf("core: %d coverage terms for %d placement slots", len(s.terms), len(s.recs))
	}
	for _, id := range ids {
		if want := s.coverageTerm(s.box(id)); math.Float64bits(s.terms[id]) != math.Float64bits(want) {
			return fmt.Errorf("core: placement %d caches coverage term %v, its box gives %v", id, s.terms[id], want)
		}
	}

	if len(s.exps) != len(s.recs) {
		return fmt.Errorf("core: %d coverage exponentials for %d placement slots", len(s.exps), len(s.recs))
	}
	if !s.expsValid {
		return nil
	}
	base := s.largestTerm()
	if math.Float64bits(s.expBase) != math.Float64bits(base) {
		return fmt.Errorf("core: coverage exponentials based on %v, the largest live term is %v", s.expBase, base)
	}
	for _, id := range ids {
		if want := math.Exp2(s.terms[id] - base); math.Float64bits(s.exps[id]) != math.Float64bits(want) {
			return fmt.Errorf("core: placement %d caches coverage exponential %v, its term gives %v", id, s.exps[id], want)
		}
	}
	return nil
}

// checkSpans verifies checks 1 and 5 on the compiled rows: each row's
// spans are non-empty, ascending and disjoint, and every span carries at
// least one placement, each live and registered on the whole span.
func (s *Structure) checkSpans(cs *CompiledStructure) error {
	var slots []int32
	for r := 0; r < 2*cs.n; r++ {
		for sp := int(cs.rowStart[r]); sp < int(cs.rowStart[r+1]); sp++ {
			span := geom.Interval{Lo: int(cs.spanLo[sp]), Hi: int(cs.spanHi[sp])}
			if span.Empty() {
				return fmt.Errorf("core: %s row %d: empty span %v", dimName(r), r/2, span)
			}
			if sp > int(cs.rowStart[r]) && int(cs.spanHi[sp-1]) >= span.Lo {
				return fmt.Errorf("core: %s row %d: span %v follows %v out of order or overlapping",
					dimName(r), r/2, span, geom.Interval{Lo: int(cs.spanLo[sp-1]), Hi: int(cs.spanHi[sp-1])})
			}
			slots = cs.spanSlots(sp, slots[:0])
			if len(slots) == 0 {
				return fmt.Errorf("core: %s row %d: span %v carries no placements", dimName(r), r/2, span)
			}
			for _, slot := range slots {
				id := int(cs.slotID[slot])
				if s.recs[id] == nil {
					return fmt.Errorf("core: %s row %d references deleted placement %d", dimName(r), r/2, id)
				}
				if iv := boxRow(s.box(id), r); !iv.ContainsInterval(span) {
					return fmt.Errorf("core: %s row %d registers placement %d on %v outside its box %v",
						dimName(r), r/2, id, span, iv)
				}
			}
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

// checkRegistered verifies the placement id with validity box box, in
// compiled slot slot, appears in every row exactly on its validity
// interval: present at both ends, absent just outside.
func checkRegistered(cs *CompiledStructure, slot, id int, box []int) error {
	registered := func(r, v int) bool {
		sp := cs.findSpan(r, v)
		return sp >= 0 && cs.masks[sp*cs.words+slot/64]>>(slot%64)&1 == 1
	}
	for r := 0; r < 2*cs.n; r++ {
		iv := boxRow(box, r)
		for _, probe := range []struct {
			v      int
			wantIn bool
			what   string
		}{
			{iv.Lo, true, "Lo"},
			{iv.Hi, true, "Hi"},
			{iv.Lo - 1, false, "Lo-1"},
			{iv.Hi + 1, false, "Hi+1"},
		} {
			if got := registered(r, probe.v); got != probe.wantIn {
				return fmt.Errorf("core: placement %d block %d: registered=%v at %s %s, want %v",
					id, r/2, got, dimName(r), probe.what, probe.wantIn)
			}
		}
	}
	return nil
}
