package core

// Differential tests for the generation fast paths: the cached coverage
// terms and the in-place Renumber each run against the code they
// replaced, on structures churned by overlap resolution. The references
// are exported so the generated-structure tests in package core_test can
// use them too.

import (
	"bytes"
	"io"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"mps/internal/circuits"
	"mps/internal/intervalmap"
	"mps/internal/netlist"
	"mps/internal/placement"
)

// CoverageFromScratch is Coverage without the cached terms: every call
// recomputes each live placement's log2 volume fraction, then runs the
// same two-pass log-sum-exp in ID order.
func CoverageFromScratch(s *Structure) float64 {
	lgFrac := func(p *placement.Placement) float64 {
		lg := 0.0
		for i, b := range s.circuit.Blocks {
			lg += math.Log2(p.WIv(i).LenFloat()) - math.Log2(b.WRange().LenFloat())
			lg += math.Log2(p.HIv(i).LenFloat()) - math.Log2(b.HRange().LenFloat())
		}
		return lg
	}
	maxLg := math.Inf(-1)
	for _, p := range s.placements {
		if p == nil {
			continue
		}
		if lg := lgFrac(p); lg > maxLg {
			maxLg = lg
		}
	}
	if math.IsInf(maxLg, -1) {
		return 0
	}
	sum := 0.0
	for _, p := range s.placements {
		if p == nil {
			continue
		}
		if lg := lgFrac(p); !math.IsInf(lg, -1) {
			sum += math.Exp2(lg - maxLg)
		}
	}
	return math.Exp2(maxLg + math.Log2(sum))
}

// RenumberRemoveInsert is Renumber by removing every moved placement from
// all 2N rows and re-inserting it under its new ID. The coverage terms
// move with the placements, as Renumber moves them.
func RenumberRemoveInsert(s *Structure) {
	if len(s.placements) == s.alive {
		return
	}
	s.compiled.Store(nil)
	n := s.circuit.N()
	next := 0
	for id, p := range s.placements {
		if p == nil {
			continue
		}
		if id != next {
			for i := 0; i < n; i++ {
				s.wRows[i].Remove(id, p.WIv(i))
				s.hRows[i].Remove(id, p.HIv(i))
				s.wRows[i].Insert(next, p.WIv(i))
				s.hRows[i].Insert(next, p.HIv(i))
			}
			p.ID = next
			s.placements[next] = p
			s.terms[next] = s.terms[id]
			s.placements[id] = nil
		}
		next++
	}
	s.placements = s.placements[:next]
	s.terms = s.terms[:next]
}

// RowSnapshots returns the snapshot of every row: block 0's width and
// height rows, then block 1's, and so on.
func RowSnapshots(s *Structure) [][]intervalmap.Span {
	out := make([][]intervalmap.Span, 0, 2*s.circuit.N())
	for i := range s.wRows {
		out = append(out, s.wRows[i].Snapshot(), s.hRows[i].Snapshot())
	}
	return out
}

// HasIDHoles reports whether some placement ID below the highest is free.
func HasIDHoles(s *Structure) bool { return len(s.placements) > s.alive }

// churnedStructure inserts count random legal placements with random
// costs into a fresh structure for c. Each is expanded to its maximal box,
// and then about half its intervals lose a random prefix, so boxes overlap
// in every way overlap resolution handles: it shrinks, forks and deletes
// stored placements and leaves holes in the ID space. check, when non-nil,
// runs after every Insert.
func churnedStructure(t *testing.T, c *netlist.Circuit, seed int64, count int, check func(*Structure)) *Structure {
	t.Helper()
	fp := placement.DefaultFloorplan(c)
	s := NewStructure(c, fp)
	rng := rand.New(rand.NewSource(seed))
	raise := func(lo, hi int) int {
		if rng.Intn(2) == 0 {
			return lo
		}
		return lo + rng.Intn(hi-lo+1)
	}
	for step := 0; step < count; step++ {
		p, err := placement.RandomLegal(c, fp, rng)
		if err != nil {
			t.Fatal(err)
		}
		p.Expand(c, fp, 1+rng.Intn(3))
		for i := range p.X {
			p.WLo[i] = raise(p.WLo[i], p.WHi[i])
			p.HLo[i] = raise(p.HLo[i], p.HHi[i])
		}
		p.AvgCost = 100 * rng.Float64()
		p.BestCost = p.AvgCost
		if _, err := s.Insert(p); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if check != nil {
			check(s)
		}
	}
	return s
}

func v3Bytes(t *testing.T, s *Structure) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.SaveBinaryCompiled(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRenumberMatchesRemoveInsert: the in-place relabel leaves the same
// rows, row by row and span by span, and the same v3 bytes as removing
// and re-inserting every moved placement, on structures with ID holes
// from overlap resolution alone and from resolution plus Compact.
func TestRenumberMatchesRemoveInsert(t *testing.T) {
	for _, name := range []string{"circ01", "TwoStageOpamp", "Mixer"} {
		c := circuits.MustByName(name)
		for seed := int64(1); seed <= 3; seed++ {
			for _, compact := range []bool{false, true} {
				want := churnedStructure(t, c, seed, 40, nil)
				got := churnedStructure(t, c, seed, 40, nil)
				if compact {
					want.Compact()
					got.Compact()
				}
				if !HasIDHoles(got) {
					t.Fatalf("%s seed %d compact=%v: no ID holes to renumber", name, seed, compact)
				}
				RenumberRemoveInsert(want)
				got.Renumber()
				if !reflect.DeepEqual(RowSnapshots(got), RowSnapshots(want)) {
					t.Fatalf("%s seed %d compact=%v: rows differ from the remove+insert reference", name, seed, compact)
				}
				if !bytes.Equal(v3Bytes(t, got), v3Bytes(t, want)) {
					t.Fatalf("%s seed %d compact=%v: v3 bytes differ from the remove+insert reference", name, seed, compact)
				}
				if err := got.CheckInvariants(); err != nil {
					t.Fatalf("%s seed %d compact=%v: %v", name, seed, compact, err)
				}
			}
		}
	}
}

// TestCoverageMatchesFromScratch compares the cached-term Coverage with
// the from-scratch recomputation bit for bit after every Insert of a
// random sequence, after Compact, after Renumber, and after a load from
// every codec.
func TestCoverageMatchesFromScratch(t *testing.T) {
	for _, name := range []string{"circ01", "TwoStageOpamp", "Mixer"} {
		c := circuits.MustByName(name)
		same := func(s *Structure, what string) {
			t.Helper()
			if got, want := s.Coverage(), CoverageFromScratch(s); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s %s: Coverage = %v (%#x), from scratch %v (%#x)",
					name, what, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
		s := churnedStructure(t, c, 5, 60, func(s *Structure) { same(s, "after insert") })
		s.Compact()
		same(s, "after Compact")
		if err := s.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		s.Renumber()
		same(s, "after Renumber")
		for _, save := range []func(io.Writer) error{
			s.SaveBinaryCompiled,
			s.SaveBinary,
			s.Save,
		} {
			var buf bytes.Buffer
			if err := save(&buf); err != nil {
				t.Fatal(err)
			}
			loaded, err := Load(&buf, c)
			if err != nil {
				t.Fatal(err)
			}
			same(loaded, "after Load")
			if math.Float64bits(loaded.Coverage()) != math.Float64bits(s.Coverage()) {
				t.Fatalf("%s: loaded Coverage %v, saved %v", name, loaded.Coverage(), s.Coverage())
			}
		}
	}
}
