package core

// Differential tests for the generation fast paths: the cached coverage
// terms, the in-place Renumber, the rows swept from the box table and the
// box-table conflict scan each run against a reference or the definition,
// on structures churned by overlap resolution. The references are
// exported so the generated-structure tests in package core_test can use
// them too.

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"mps/internal/circuits"
	"mps/internal/geom"
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

// RenumberRemoveInsert is Renumber by emptying the structure and storing
// every live placement afresh, in ID order: store appends a new box table
// instead of Renumber's in-place packing. store recomputes each coverage
// term, which equals the one Renumber moves bit for bit.
func RenumberRemoveInsert(s *Structure) {
	if len(s.placements) == s.alive {
		return
	}
	var live []*placement.Placement
	for _, p := range s.placements {
		if p != nil {
			live = append(live, p)
		}
	}
	s.invalidate()
	s.placements, s.terms, s.exps, s.boxes, s.alive = nil, nil, nil, nil, 0
	s.expsValid = false
	for _, p := range live {
		if _, err := s.store(p); err != nil {
			panic(err)
		}
	}
	s.rebaseExps()
}

// CompactRestart is Compact as a scan that restarts after every merge:
// it walks the live pairs (a, b), a < b, in order, merges the first
// mergeable one as tryMerge(a, b) under the next ID, and starts over,
// until no pair merges. Compact must perform the same merges in the same
// order.
func CompactRestart(s *Structure) int {
	merges := 0
	for {
		ids := s.IDs()
		merged := false
	scan:
		for a := 0; a < len(ids); a++ {
			for b := a + 1; b < len(ids); b++ {
				if m := tryMerge(s.placements[ids[a]], s.placements[ids[b]]); m != nil {
					s.delete(ids[a])
					s.delete(ids[b])
					if _, err := s.store(m); err != nil {
						panic(err)
					}
					merges++
					merged = true
					break scan
				}
			}
		}
		if !merged {
			s.rebaseExps()
			return merges
		}
	}
}

// SameStructure reports the first difference between two structures'
// placement slots, box tables and coverage terms: live IDs, coordinates,
// intervals, and the cost fields bit for bit.
func SameStructure(got, want *Structure) error {
	if len(got.placements) != len(want.placements) || got.alive != want.alive {
		return fmt.Errorf("%d slots, %d live; want %d slots, %d live",
			len(got.placements), got.alive, len(want.placements), want.alive)
	}
	bits := math.Float64bits
	for id, p := range got.placements {
		q := want.placements[id]
		if (p == nil) != (q == nil) {
			return fmt.Errorf("slot %d live = %v, want %v", id, p != nil, q != nil)
		}
		if p == nil {
			continue
		}
		if p.ID != q.ID || !slices.Equal(p.X, q.X) || !slices.Equal(p.Y, q.Y) ||
			!slices.Equal(p.WLo, q.WLo) || !slices.Equal(p.WHi, q.WHi) ||
			!slices.Equal(p.HLo, q.HLo) || !slices.Equal(p.HHi, q.HHi) {
			return fmt.Errorf("placement %d: %+v, want %+v", id, p, q)
		}
		if bits(p.AvgCost) != bits(q.AvgCost) || bits(p.BestCost) != bits(q.BestCost) ||
			!slices.Equal(p.BestW, q.BestW) || !slices.Equal(p.BestH, q.BestH) {
			return fmt.Errorf("placement %d costs: avg %v best %v at %v %v, want avg %v best %v at %v %v",
				id, p.AvgCost, p.BestCost, p.BestW, p.BestH, q.AvgCost, q.BestCost, q.BestW, q.BestH)
		}
		if bits(got.terms[id]) != bits(want.terms[id]) {
			return fmt.Errorf("placement %d coverage term %v, want %v", id, got.terms[id], want.terms[id])
		}
	}
	if !slices.Equal(got.boxes, want.boxes) {
		return fmt.Errorf("box tables differ")
	}
	return nil
}

// RowSnapshots returns the snapshot of every row the tree query path
// walks: block 0's width and height rows, then block 1's, and so on.
func RowSnapshots(s *Structure) [][]intervalmap.Span {
	rows := s.view()
	out := make([][]intervalmap.Span, len(rows))
	for r, row := range rows {
		out[r] = row.Snapshot()
	}
	return out
}

// DefinedRows builds every row, in RowSnapshots' order, from the live
// placements by the definition of a row rather than by a sweep: each
// elementary interval between consecutive breakpoints (every interval's
// Lo and Hi+1) carries the ascending IDs of the placements whose interval
// holds its first value; intervals carrying none are dropped, and
// touching neighbours carrying the same IDs merge.
func DefinedRows(s *Structure) [][]intervalmap.Span {
	out := make([][]intervalmap.Span, 2*s.circuit.N())
	for r := range out {
		var cuts []int
		for _, p := range s.placements {
			if p != nil {
				iv := rowInterval(p, r)
				cuts = append(cuts, iv.Lo)
				if iv.Hi < math.MaxInt {
					cuts = append(cuts, iv.Hi+1)
				}
			}
		}
		slices.Sort(cuts)
		cuts = slices.Compact(cuts)
		for k, lo := range cuts {
			hi := math.MaxInt
			if k+1 < len(cuts) {
				hi = cuts[k+1] - 1
			}
			var ids []int
			for id, p := range s.placements {
				if p != nil && rowInterval(p, r).Contains(lo) {
					ids = append(ids, id)
				}
			}
			if len(ids) == 0 {
				continue
			}
			if m := len(out[r]); m > 0 && out[r][m-1].Iv.Hi+1 == lo && slices.Equal(out[r][m-1].IDs, ids) {
				out[r][m-1].Iv.Hi = hi
				continue
			}
			out[r] = append(out[r], intervalmap.Span{Iv: geom.NewInterval(lo, hi), IDs: ids})
		}
	}
	return out
}

// CompiledRows returns the compiled index's row tables in RowSnapshots'
// form, each span's slots mapped back to placement IDs.
func CompiledRows(cs *CompiledStructure) [][]intervalmap.Span {
	out := make([][]intervalmap.Span, 2*cs.n)
	var slots []int32
	for r := range out {
		for sp := cs.rowStart[r]; sp < cs.rowStart[r+1]; sp++ {
			slots = cs.spanSlots(int(sp), slots[:0])
			ids := make([]int, len(slots))
			for k, slot := range slots {
				ids[k] = int(cs.slotID[slot])
			}
			out[r] = append(out[r], intervalmap.Span{Iv: geom.NewInterval(int(cs.spanLo[sp]), int(cs.spanHi[sp])), IDs: ids})
		}
	}
	return out
}

// CheckBruteForce checks the rows view, the compiled tables and the
// conflict scan against their definitions: both row forms against
// DefinedRows; the tree and compiled Lookup against LookupLinear at every
// live box's corners and centre and at random dimension vectors; and
// conflicting, for every live box and for random boxes, against
// BoxOverlaps with every live placement.
func CheckBruteForce(s *Structure, rng *rand.Rand) error {
	want := DefinedRows(s)
	if got := RowSnapshots(s); !reflect.DeepEqual(got, want) {
		return fmt.Errorf("rows view %v differs from the definition %v", got, want)
	}
	cs := Compile(s)
	if got := CompiledRows(cs); !reflect.DeepEqual(got, want) {
		return fmt.Errorf("compiled rows %v differ from the definition %v", got, want)
	}
	c := s.circuit
	n := c.N()
	probe := func(ws, hs []int) error {
		want := s.LookupLinear(ws, hs)
		if got := s.Lookup(ws, hs); !slices.Equal(got, want) {
			return fmt.Errorf("tree Lookup(%v, %v) = %v, linear scan %v", ws, hs, got, want)
		}
		if got := cs.Lookup(ws, hs); !slices.Equal(got, want) {
			return fmt.Errorf("compiled Lookup(%v, %v) = %v, linear scan %v", ws, hs, got, want)
		}
		return nil
	}
	ws, hs := make([]int, n), make([]int, n)
	var boxes []*placement.Placement
	for _, id := range s.IDs() {
		p := s.placements[id]
		boxes = append(boxes, p)
		for _, corner := range []func(lo, hi int) int{
			func(lo, hi int) int { return lo },
			func(lo, hi int) int { return hi },
			func(lo, hi int) int { return lo + (hi-lo)/2 },
		} {
			for i := 0; i < n; i++ {
				ws[i], hs[i] = corner(p.WLo[i], p.WHi[i]), corner(p.HLo[i], p.HHi[i])
			}
			if err := probe(ws, hs); err != nil {
				return err
			}
		}
	}
	for k := 0; k < 64; k++ {
		for i, b := range c.Blocks {
			ws[i], hs[i] = b.WRange().Rand(rng), b.HRange().Rand(rng)
		}
		if err := probe(ws, hs); err != nil {
			return err
		}
		p, err := placement.RandomLegal(c, s.fp, rng)
		if err != nil {
			return err
		}
		p.Expand(c, s.fp, 1+rng.Intn(3))
		boxes = append(boxes, p)
	}
	for _, p := range boxes {
		var want []int
		for _, id := range s.IDs() {
			if p.BoxOverlaps(s.placements[id]) {
				want = append(want, id)
			}
		}
		if got := s.conflicting(p); !slices.Equal(got, want) {
			return fmt.Errorf("conflicting(%v) = %v, all-pairs BoxOverlaps %v", p, got, want)
		}
	}
	return nil
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

// TestRenumberMatchesRemoveInsert: the in-place packing of the box table
// leaves the rows, row by row and span by span, that the definition gives
// for the live placements stored afresh, and the same v3 bytes as that
// fresh store, on structures with ID holes from overlap resolution alone
// and from resolution plus Compact.
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
				if !reflect.DeepEqual(RowSnapshots(got), DefinedRows(want)) {
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

// TestCoverageCacheUnderMutation drives a seeded sequence of the
// mutations the cached coverage exponentials must follow: Insert (store,
// and resolution's shrinks, forks and deletes), shrinking and deleting a
// random placement or the one holding the largest term, Compact,
// Renumber, and a v2 save and Load. After every step Coverage must equal
// the two-pass formula written out (CoverageFromScratch) bit for bit and
// CheckInvariants must hold; deleting or shrinking the largest term must
// mark the cache stale, and Insert, Compact, Renumber and Load must leave
// it valid.
func TestCoverageCacheUnderMutation(t *testing.T) {
	for _, name := range []string{"circ01", "TwoStageOpamp", "Mixer"} {
		c := circuits.MustByName(name)
		rng := rand.New(rand.NewSource(11))
		s := churnedStructure(t, c, 11, 20, nil)
		cached := 0
		check := func(step int, what string) {
			t.Helper()
			if got, want := s.Coverage(), CoverageFromScratch(s); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s step %d (%s): Coverage = %v, from scratch %v", name, step, what, got, want)
			}
			if err := s.CheckInvariants(); err != nil {
				t.Fatalf("%s step %d (%s): %v", name, step, what, err)
			}
			if s.expsValid {
				cached++
			}
		}
		valid := func(step int, what string) {
			t.Helper()
			if !s.expsValid {
				t.Fatalf("%s step %d: the cache is stale after %s", name, step, what)
			}
		}
		largest := func() int {
			best := -1
			for _, id := range s.IDs() {
				if best < 0 || s.terms[id] > s.terms[best] {
					best = id
				}
			}
			return best
		}
		// shrink narrows one interval of id by one from the top, in a row
		// wider than one value, and reports whether it found one.
		shrink := func(id int) bool {
			p := s.placements[id]
			for _, r := range rng.Perm(2 * c.N()) {
				if iv := rowInterval(p, r); iv.Hi > iv.Lo {
					s.shrinkRow(p, r/2, r%2, geom.Interval{Lo: iv.Lo, Hi: iv.Hi - 1})
					return true
				}
			}
			return false
		}
		for step := 0; step < 120; step++ {
			if s.alive < 4 {
				s = churnedStructure(t, c, int64(step), 20, nil)
			}
			ids := s.IDs()
			switch op := rng.Intn(10); op {
			case 0, 1, 2:
				p, err := placement.RandomLegal(c, s.fp, rng)
				if err != nil {
					t.Fatal(err)
				}
				p.Expand(c, s.fp, 1+rng.Intn(3))
				p.AvgCost = 100 * rng.Float64()
				if _, err := s.Insert(p); err != nil {
					t.Fatal(err)
				}
				valid(step, "Insert")
				check(step, "Insert")
			case 3:
				if shrink(ids[rng.Intn(len(ids))]) {
					check(step, "shrink")
				}
			case 4:
				was := s.expsValid
				if shrink(largest()) {
					if was && s.expsValid {
						t.Fatalf("%s step %d: shrinking the largest term left the cache valid", name, step)
					}
					check(step, "shrink the largest")
				}
			case 5:
				s.delete(ids[rng.Intn(len(ids))])
				check(step, "delete")
			case 6:
				s.delete(largest())
				if s.expsValid {
					t.Fatalf("%s step %d: deleting the largest term left the cache valid", name, step)
				}
				check(step, "delete the largest")
			case 7:
				s.Compact()
				valid(step, "Compact")
				check(step, "Compact")
			case 8:
				s.Renumber()
				valid(step, "Renumber")
				check(step, "Renumber")
			case 9:
				var buf bytes.Buffer
				if err := s.SaveBinary(&buf); err != nil {
					t.Fatal(err)
				}
				loaded, err := Load(&buf, c)
				if err != nil {
					t.Fatal(err)
				}
				if math.Float64bits(loaded.Coverage()) != math.Float64bits(s.Coverage()) {
					t.Fatalf("%s step %d: loaded Coverage %v, saved %v", name, step, loaded.Coverage(), s.Coverage())
				}
				s = loaded
				valid(step, "Load")
				check(step, "Load")
			}
		}
		if cached < 60 {
			t.Fatalf("%s: Coverage read a valid cache in only %d steps", name, cached)
		}
	}
}

// TestCoverageAllocFree pins Coverage at zero allocations: the Progress
// hook calls it once per explorer iteration.
func TestCoverageAllocFree(t *testing.T) {
	s := churnedStructure(t, circuits.MustByName("TwoStageOpamp"), 2, 40, nil)
	if allocs := testing.AllocsPerRun(100, func() { s.Coverage() }); allocs != 0 {
		t.Fatalf("Coverage allocates %v times per call, want 0", allocs)
	}
}

// TestChurnMatchesBruteForce checks the rows view, the compiled tables
// and the conflict scan against brute force (CheckBruteForce) after every
// Insert of churned structures, whose resolution shrinks, forks and
// deletes stored placements, and again after Compact and Renumber.
func TestChurnMatchesBruteForce(t *testing.T) {
	for _, name := range []string{"circ01", "TwoStageOpamp", "Mixer"} {
		c := circuits.MustByName(name)
		for seed := int64(1); seed <= 2; seed++ {
			rng := rand.New(rand.NewSource(seed))
			check := func(s *Structure) {
				t.Helper()
				if err := CheckBruteForce(s, rng); err != nil {
					t.Fatalf("%s seed %d: %v", name, seed, err)
				}
			}
			s := churnedStructure(t, c, seed, 40, check)
			s.Compact()
			check(s)
			s.Renumber()
			check(s)
		}
	}
}

// TestTreeQueriesBuildRowsConcurrently runs tree queries from many
// goroutines on structures whose rows view was never built: a fresh load,
// and a generated structure right after a mutation dropped its view.
// Every reader may build the view on first use; under -race this checks
// that building and publishing it is race-free, and every answer must
// still match the linear scan.
func TestTreeQueriesBuildRowsConcurrently(t *testing.T) {
	base := churnedStructure(t, circuits.MustByName("TwoStageOpamp"), 4, 40, nil)
	var v2 bytes.Buffer
	if err := base.SaveBinary(&v2); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&v2, base.circuit)
	if err != nil {
		t.Fatal(err)
	}
	base.Renumber()
	for _, s := range []*Structure{loaded, base} {
		if s.rows.Load() != nil {
			t.Fatal("rows view built before the first query")
		}
		const workers = 8
		done := make(chan error, workers)
		for w := 0; w < workers; w++ {
			go func(seed int64) {
				rng := rand.New(rand.NewSource(seed))
				n := s.circuit.N()
				ws, hs := make([]int, n), make([]int, n)
				for trial := 0; trial < 300; trial++ {
					randomDims(s, rng, ws, hs)
					if got, want := s.Lookup(ws, hs), s.LookupLinear(ws, hs); !slices.Equal(got, want) {
						done <- fmt.Errorf("Lookup(%v, %v) = %v, linear scan %v", ws, hs, got, want)
						return
					}
					if _, err := s.Query(ws, hs); err != nil && err != ErrUncovered {
						done <- err
						return
					}
				}
				done <- nil
			}(int64(w + 1))
		}
		for w := 0; w < workers; w++ {
			if err := <-done; err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestConflictingAllocFree pins the conflict scan at zero allocations once
// its scratch buffers have grown: it runs once per candidate piece on
// every Insert.
func TestConflictingAllocFree(t *testing.T) {
	s := churnedStructure(t, circuits.MustByName("TwoStageOpamp"), 2, 40, nil)
	var probes []*placement.Placement
	for _, id := range s.IDs() {
		probes = append(probes, s.Get(id).Clone())
	}
	rng := rand.New(rand.NewSource(9))
	for k := 0; k < 8; k++ {
		p, err := placement.RandomLegal(s.circuit, s.fp, rng)
		if err != nil {
			t.Fatal(err)
		}
		p.Expand(s.circuit, s.fp, 3)
		probes = append(probes, p)
	}
	for _, p := range probes {
		s.conflicting(p)
	}
	k := 0
	if allocs := testing.AllocsPerRun(200, func() {
		s.conflicting(probes[k%len(probes)])
		k++
	}); allocs != 0 {
		t.Fatalf("conflicting allocates %v times per call, want 0", allocs)
	}
}
