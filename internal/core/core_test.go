package core

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"mps/internal/geom"
	"mps/internal/netlist"
	"mps/internal/placement"
)

// pairCircuit returns a two-block circuit with wide dimension bounds
// [1,100] and anchors chosen so blocks can never collide at max dims.
func pairCircuit() (*netlist.Circuit, geom.Rect) {
	b := netlist.NewBuilder("pair")
	b.Block("a", 1, 100, 1, 100)
	b.Block("b", 1, 100, 1, 100)
	b.Net("n", 1, netlist.P("a"), netlist.P("b"))
	return b.MustBuild(), geom.NewRect(0, 0, 500, 500)
}

// mk builds a legal placement on the pair circuit with the given validity
// box and average cost. Intervals are [lo hi] pairs per block: w0, h0, w1, h1.
func mk(avg float64, w0, h0, w1, h1 [2]int) *placement.Placement {
	p := &placement.Placement{
		ID: -1,
		X:  []int{0, 200}, Y: []int{0, 200},
		WLo: []int{w0[0], w1[0]}, WHi: []int{w0[1], w1[1]},
		HLo: []int{h0[0], h1[0]}, HHi: []int{h0[1], h1[1]},
		AvgCost: avg, BestCost: avg / 2,
	}
	return p
}

func full() [2]int { return [2]int{1, 100} }

func TestStoreAndQuerySingle(t *testing.T) {
	c, fp := pairCircuit()
	s := NewStructure(c, fp)
	stats, err := s.Insert(mk(1, [2]int{10, 20}, [2]int{10, 20}, [2]int{10, 20}, [2]int{10, 20}))
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.StoredIDs) != 1 {
		t.Fatalf("StoredIDs = %v, want one", stats.StoredIDs)
	}
	if s.NumPlacements() != 1 {
		t.Fatalf("NumPlacements = %d, want 1", s.NumPlacements())
	}
	p, err := s.Query([]int{15, 15}, []int{15, 15})
	if err != nil {
		t.Fatal(err)
	}
	if p.ID != stats.StoredIDs[0] {
		t.Errorf("Query returned placement %d, want %d", p.ID, stats.StoredIDs[0])
	}
	if _, err := s.Query([]int{50, 15}, []int{15, 15}); !errors.Is(err, ErrUncovered) {
		t.Errorf("outside box: err = %v, want ErrUncovered", err)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestQueryRejectsBadDims(t *testing.T) {
	c, fp := pairCircuit()
	s := NewStructure(c, fp)
	if _, err := s.Query([]int{5}, []int{5, 5}); err == nil {
		t.Error("short vector should error")
	}
	if _, err := s.Query([]int{0, 5}, []int{5, 5}); err == nil {
		t.Error("width below designer min should error")
	}
	if _, err := s.Query([]int{5, 5}, []int{5, 101}); err == nil {
		t.Error("height above designer max should error")
	}
}

// TestCandidateShrinks covers the partial-overlap case: the newcomer has the
// higher average cost and must lose the shared region in the smallest row.
func TestCandidateShrinks(t *testing.T) {
	c, fp := pairCircuit()
	s := NewStructure(c, fp)
	if _, err := s.Insert(mk(1.0, [2]int{10, 20}, full(), full(), full())); err != nil {
		t.Fatal(err)
	}
	stats, err := s.Insert(mk(2.0, [2]int{15, 30}, full(), full(), full()))
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.StoredIDs) != 1 {
		t.Fatalf("StoredIDs = %v, want one shrunk piece", stats.StoredIDs)
	}
	got := s.Get(stats.StoredIDs[0])
	if got.WLo[0] != 21 || got.WHi[0] != 30 {
		t.Errorf("candidate w0 interval [%d,%d], want [21,30]", got.WLo[0], got.WHi[0])
	}
	// The incumbent still answers inside its region.
	p, err := s.Query([]int{18, 5}, []int{5, 5})
	if err != nil || p.AvgCost != 1.0 {
		t.Errorf("query in incumbent region: p=%v err=%v", p, err)
	}
	// The newcomer answers in its surviving region.
	p, err = s.Query([]int{25, 5}, []int{5, 5})
	if err != nil || p.AvgCost != 2.0 {
		t.Errorf("query in newcomer region: p=%v err=%v", p, err)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// TestCandidateForks covers the containment case: the newcomer's interval
// strictly contains the incumbent's, so the newcomer splits into two.
func TestCandidateForks(t *testing.T) {
	c, fp := pairCircuit()
	s := NewStructure(c, fp)
	if _, err := s.Insert(mk(1.0, [2]int{40, 50}, full(), full(), full())); err != nil {
		t.Fatal(err)
	}
	stats, err := s.Insert(mk(2.0, [2]int{10, 100}, full(), full(), full()))
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.StoredIDs) != 2 {
		t.Fatalf("StoredIDs = %v, want two forked pieces", stats.StoredIDs)
	}
	if s.NumPlacements() != 3 {
		t.Fatalf("NumPlacements = %d, want 3", s.NumPlacements())
	}
	// Left piece, incumbent, right piece must answer their own regions.
	for _, tc := range []struct {
		w0   int
		want float64
	}{
		{20, 2.0}, {45, 1.0}, {60, 2.0},
	} {
		p, err := s.Query([]int{tc.w0, 5}, []int{5, 5})
		if err != nil {
			t.Fatalf("w0=%d: %v", tc.w0, err)
		}
		if p.AvgCost != tc.want {
			t.Errorf("w0=%d answered by cost-%g placement, want %g", tc.w0, p.AvgCost, tc.want)
		}
	}
	if err := s.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// TestPiecesShareRecord: the pieces an Insert cuts from one candidate
// share the candidate's record, and the two pieces of a forked stored
// placement share the loser's; only the intervals differ, in the box
// table.
func TestPiecesShareRecord(t *testing.T) {
	c, fp := pairCircuit()
	s := NewStructure(c, fp)
	if _, err := s.Insert(mk(1.0, [2]int{40, 50}, full(), full(), full())); err != nil {
		t.Fatal(err)
	}
	stats, err := s.Insert(mk(2.0, [2]int{10, 100}, full(), full(), full()))
	if err != nil {
		t.Fatal(err)
	}
	if ids := stats.StoredIDs; len(ids) != 2 || s.recs[ids[0]] != s.recs[ids[1]] || s.recs[ids[0]] == s.recs[0] {
		t.Fatalf("forked candidate stored as %v with records %p, %p; want two pieces of one new record",
			ids, s.recs[ids[0]], s.recs[ids[len(ids)-1]])
	}

	s = NewStructure(c, fp)
	if _, err := s.Insert(mk(2.0, full(), full(), full(), full())); err != nil {
		t.Fatal(err)
	}
	loser := s.recs[0]
	stats, err = s.Insert(mk(1.0, [2]int{40, 50}, full(), full(), full()))
	if err != nil {
		t.Fatal(err)
	}
	if stats.StoredForked != 1 || !reflect.DeepEqual(s.IDs(), []int{1, 2, 3}) || !reflect.DeepEqual(stats.StoredIDs, []int{3}) {
		t.Fatalf("stats %+v, IDs %v; want the stored placement forked into 1 and 2 and the newcomer at 3", stats, s.IDs())
	}
	if s.recs[1] != loser || s.recs[2] != loser || s.recs[3] == loser {
		t.Error("the stored fork's pieces do not share the loser's record")
	}
	if p, q := s.Get(1), s.Get(2); p.WHi[0] != 39 || q.WLo[0] != 51 || p.AvgCost != 2.0 || q.AvgCost != 2.0 {
		t.Errorf("fork pieces %+v and %+v, want w0 [1,39] and [51,100] at cost 2", p, q)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// TestInsertRefusesBadCandidate: a candidate with an empty interval or an
// interval outside its designer bounds gets the error storing it always
// gave, before anything is stored or shrunk. The out-of-bounds one would
// win its conflict and fork the stored placement.
func TestInsertRefusesBadCandidate(t *testing.T) {
	c, fp := pairCircuit()
	build := func() *Structure {
		s := NewStructure(c, fp)
		if _, err := s.Insert(mk(2.0, full(), full(), full(), full())); err != nil {
			t.Fatal(err)
		}
		Compile(s)
		return s
	}
	outside := mk(1.0, [2]int{0, 50}, full(), full(), full()) // width 0 is below the minimum 1
	for _, tc := range []struct {
		cand *placement.Placement
		want string
	}{
		{mk(1.0, [2]int{20, 10}, full(), full(), full()), "core: refusing to store placement with empty dimension box"},
		{outside, outside.CheckIntervalsWithin(c).Error()},
	} {
		s, want := build(), build()
		cs := s.compiled.Load()
		if _, err := s.Insert(tc.cand); err == nil || err.Error() != tc.want {
			t.Errorf("Insert: %v, want %q", err, tc.want)
		}
		if err := SameStructure(s, want); err != nil {
			t.Errorf("refused candidate changed the structure: %v", err)
		}
		if s.compiled.Load() != cs {
			t.Error("refused candidate dropped the compiled index")
		}
	}
}

// TestCandidateEngulfed: a worse newcomer entirely inside an incumbent's box
// must die without changing the structure.
func TestCandidateEngulfed(t *testing.T) {
	c, fp := pairCircuit()
	s := NewStructure(c, fp)
	if _, err := s.Insert(mk(1.0, full(), full(), full(), full())); err != nil {
		t.Fatal(err)
	}
	stats, err := s.Insert(mk(2.0, [2]int{10, 20}, [2]int{10, 20}, [2]int{10, 20}, [2]int{10, 20}))
	if err != nil {
		t.Fatal(err)
	}
	if !stats.CandidateDied || len(stats.StoredIDs) != 0 {
		t.Errorf("stats = %+v, want candidate death", stats)
	}
	if s.NumPlacements() != 1 {
		t.Errorf("NumPlacements = %d, want 1", s.NumPlacements())
	}
	if err := s.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// TestStoredForks: a better newcomer cutting through the middle of a stored
// placement's interval forks the stored placement.
func TestStoredForks(t *testing.T) {
	c, fp := pairCircuit()
	s := NewStructure(c, fp)
	if _, err := s.Insert(mk(2.0, full(), full(), full(), full())); err != nil {
		t.Fatal(err)
	}
	stats, err := s.Insert(mk(1.0, [2]int{40, 50}, full(), full(), full()))
	if err != nil {
		t.Fatal(err)
	}
	if stats.StoredForked != 1 {
		t.Errorf("StoredForked = %d, want 1", stats.StoredForked)
	}
	if s.NumPlacements() != 3 {
		t.Errorf("NumPlacements = %d, want 3 (two halves + newcomer)", s.NumPlacements())
	}
	p, err := s.Query([]int{45, 5}, []int{5, 5})
	if err != nil || p.AvgCost != 1.0 {
		t.Errorf("newcomer should own the middle: p=%v err=%v", p, err)
	}
	p, err = s.Query([]int{10, 5}, []int{5, 5})
	if err != nil || p.AvgCost != 2.0 {
		t.Errorf("left half should remain: p=%v err=%v", p, err)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// TestStoredEngulfedDeleted: a better newcomer covering a stored placement's
// whole box deletes the stored placement.
func TestStoredEngulfedDeleted(t *testing.T) {
	c, fp := pairCircuit()
	s := NewStructure(c, fp)
	sub := [2]int{10, 20}
	if _, err := s.Insert(mk(2.0, sub, sub, sub, sub)); err != nil {
		t.Fatal(err)
	}
	stats, err := s.Insert(mk(1.0, full(), full(), full(), full()))
	if err != nil {
		t.Fatal(err)
	}
	if stats.StoredDeleted != 1 {
		t.Errorf("StoredDeleted = %d, want 1", stats.StoredDeleted)
	}
	if s.NumPlacements() != 1 {
		t.Errorf("NumPlacements = %d, want only the newcomer", s.NumPlacements())
	}
	p, err := s.Query([]int{15, 5}, []int{15, 5})
	if err != nil || p.AvgCost != 1.0 {
		t.Errorf("newcomer should own everything: p=%v err=%v", p, err)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// TestTieKeepsIncumbent: equal average costs must not evict the stored
// placement.
func TestTieKeepsIncumbent(t *testing.T) {
	c, fp := pairCircuit()
	s := NewStructure(c, fp)
	if _, err := s.Insert(mk(1.0, full(), full(), full(), full())); err != nil {
		t.Fatal(err)
	}
	stats, err := s.Insert(mk(1.0, [2]int{10, 20}, [2]int{10, 20}, [2]int{10, 20}, [2]int{10, 20}))
	if err != nil {
		t.Fatal(err)
	}
	if !stats.CandidateDied {
		t.Error("tied candidate inside incumbent should die")
	}
	if err := s.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// TestInsertRandomizedInvariants drives Insert with random boxes and costs
// and checks full invariants plus a brute-force query oracle after every
// step. This is the eq.5 guarantee under stress.
func TestInsertRandomizedInvariants(t *testing.T) {
	b := netlist.NewBuilder("tri")
	b.Block("a", 1, 12, 1, 12)
	b.Block("b", 1, 12, 1, 12)
	b.Block("c", 1, 12, 1, 12)
	b.Net("n", 1, netlist.P("a"), netlist.P("b"), netlist.P("c"))
	c := b.MustBuild()
	fp := geom.NewRect(0, 0, 200, 200)

	rng := rand.New(rand.NewSource(99))
	randIv := func() [2]int {
		lo := 1 + rng.Intn(12)
		hi := lo + rng.Intn(13-lo)
		return [2]int{lo, hi}
	}
	s := NewStructure(c, fp)
	for step := 0; step < 60; step++ {
		w0, h0 := randIv(), randIv()
		w1, h1 := randIv(), randIv()
		w2, h2 := randIv(), randIv()
		p := &placement.Placement{
			ID: -1,
			X:  []int{0, 60, 120}, Y: []int{0, 60, 120},
			WLo: []int{w0[0], w1[0], w2[0]}, WHi: []int{w0[1], w1[1], w2[1]},
			HLo: []int{h0[0], h1[0], h2[0]}, HHi: []int{h0[1], h1[1], h2[1]},
			AvgCost: 1 + rng.Float64()*9,
		}
		if _, err := s.Insert(p); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if err := s.CheckInvariants(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}

	// Brute-force oracle: the compiled Lookup must agree with a linear Covers scan.
	ws := make([]int, 3)
	hs := make([]int, 3)
	for trial := 0; trial < 3000; trial++ {
		for i := 0; i < 3; i++ {
			ws[i] = 1 + rng.Intn(12)
			hs[i] = 1 + rng.Intn(12)
		}
		got := Compile(s).Lookup(ws, hs)
		var want []int
		for _, id := range s.IDs() {
			if s.Get(id).Covers(ws, hs) {
				want = append(want, id)
			}
		}
		if len(want) > 1 {
			t.Fatalf("oracle found %d covering placements — disjointness broken", len(want))
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Lookup(%v,%v) = %v, oracle = %v", ws, hs, got, want)
		}
	}
}

func TestInstantiateWithBackup(t *testing.T) {
	c, fp := pairCircuit()
	s := NewStructure(c, fp)
	if _, err := s.Insert(mk(1, [2]int{10, 20}, [2]int{10, 20}, [2]int{10, 20}, [2]int{10, 20})); err != nil {
		t.Fatal(err)
	}

	// No backup: uncovered queries error.
	if _, err := s.Instantiate([]int{50, 50}, []int{50, 50}); !errors.Is(err, ErrUncovered) {
		t.Errorf("err = %v, want ErrUncovered", err)
	}

	s.SetBackup(backupFunc(func(ws, hs []int) ([]int, []int, error) {
		return []int{1, 2}, []int{3, 4}, nil
	}))
	res, err := s.Instantiate([]int{50, 50}, []int{50, 50})
	if err != nil {
		t.Fatal(err)
	}
	if !res.FromBackup || res.PlacementID != -1 {
		t.Errorf("res = %+v, want backup provenance", res)
	}
	if !reflect.DeepEqual(res.X, []int{1, 2}) {
		t.Errorf("backup X = %v", res.X)
	}

	// Covered queries still come from the structure.
	res, err = s.Instantiate([]int{15, 15}, []int{15, 15})
	if err != nil {
		t.Fatal(err)
	}
	if res.FromBackup || res.PlacementID < 0 {
		t.Errorf("res = %+v, want stored placement", res)
	}
}

type backupFunc func(ws, hs []int) ([]int, []int, error)

func (f backupFunc) Place(ws, hs []int) ([]int, []int, error) { return f(ws, hs) }

func TestSaveLoadRoundTrip(t *testing.T) {
	c, fp := pairCircuit()
	s := NewStructure(c, fp)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 20; i++ {
		lo := 1 + rng.Intn(80)
		hi := lo + rng.Intn(101-lo)
		if _, err := s.Insert(mk(1+rng.Float64(), [2]int{lo, hi}, full(), full(), full())); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	s2, err := Load(&buf, c)
	if err != nil {
		t.Fatal(err)
	}
	if s2.NumPlacements() != s.NumPlacements() {
		t.Fatalf("loaded %d placements, want %d", s2.NumPlacements(), s.NumPlacements())
	}
	if err := s2.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Queries agree everywhere on a sample.
	for trial := 0; trial < 500; trial++ {
		ws := []int{1 + rng.Intn(100), 1 + rng.Intn(100)}
		hs := []int{1 + rng.Intn(100), 1 + rng.Intn(100)}
		a, errA := s.Query(ws, hs)
		b, errB := s2.Query(ws, hs)
		if (errA == nil) != (errB == nil) {
			t.Fatalf("query divergence at %v/%v: %v vs %v", ws, hs, errA, errB)
		}
		if errA == nil && (a.AvgCost != b.AvgCost || !reflect.DeepEqual(a.X, b.X)) {
			t.Fatalf("loaded structure answers differently at %v/%v", ws, hs)
		}
	}
}

func TestLoadRejectsWrongCircuit(t *testing.T) {
	c, fp := pairCircuit()
	s := NewStructure(c, fp)
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	other := netlist.NewBuilder("other")
	other.Block("x", 1, 10, 1, 10)
	other.Net("n", 1, netlist.T("x", 0, 0))
	oc := other.MustBuild()
	if _, err := Load(&buf, oc); err == nil {
		t.Error("loading into a different circuit should fail")
	}
}

func TestLoadRejectsCorruptOverlap(t *testing.T) {
	c, fp := pairCircuit()
	s := NewStructure(c, fp)
	if _, err := s.Insert(mk(1, [2]int{10, 20}, full(), full(), full())); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	// Corrupt: duplicate the placement so boxes overlap.
	var ff fileFormat
	if err := gobDecode(buf.Bytes(), &ff); err != nil {
		t.Fatal(err)
	}
	ff.Placements = append(ff.Placements, ff.Placements[0])
	data, err := gobEncode(&ff)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Load(bytes.NewReader(data), c); err == nil {
		t.Error("corrupt save with overlapping boxes should be rejected")
	}
}

func TestCoverageExactVsMonteCarlo(t *testing.T) {
	c, fp := pairCircuit()
	s := NewStructure(c, fp)
	// One box covering w0 in [1,50] (half), everything else full: exact
	// coverage = 0.5.
	if _, err := s.Insert(mk(1, [2]int{1, 50}, full(), full(), full())); err != nil {
		t.Fatal(err)
	}
	exact := s.Coverage()
	if exact < 0.49 || exact > 0.51 {
		t.Errorf("Coverage = %g, want 0.5", exact)
	}
	mc := s.CoverageMonteCarlo(rand.New(rand.NewSource(1)), 20000)
	if diff := mc - exact; diff < -0.02 || diff > 0.02 {
		t.Errorf("Monte-Carlo %g vs exact %g, want agreement within 0.02", mc, exact)
	}
}

func TestCoverageSumsDisjointBoxes(t *testing.T) {
	c, fp := pairCircuit()
	s := NewStructure(c, fp)
	if _, err := s.Insert(mk(1, [2]int{1, 25}, full(), full(), full())); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Insert(mk(1, [2]int{26, 50}, full(), full(), full())); err != nil {
		t.Fatal(err)
	}
	got := s.Coverage()
	if got < 0.49 || got > 0.51 {
		t.Errorf("Coverage = %g, want 0.5 from two quarter boxes", got)
	}
}

func TestCoverageLog2(t *testing.T) {
	c, fp := pairCircuit()
	s := NewStructure(c, fp)
	if lg := s.CoverageLog2(); !isInf(lg) {
		t.Errorf("empty structure CoverageLog2 = %g, want -Inf", lg)
	}
	// Single-point box: volume 1, log2 = 0.
	pt := [2]int{10, 10}
	if _, err := s.Insert(mk(1, pt, pt, pt, pt)); err != nil {
		t.Fatal(err)
	}
	if lg := s.CoverageLog2(); lg != 0 {
		t.Errorf("CoverageLog2 = %g, want 0 for one unit box", lg)
	}
}

func isInf(f float64) bool { return f < -1e308 }

func TestEmptyBoxRejected(t *testing.T) {
	c, fp := pairCircuit()
	s := NewStructure(c, fp)
	p := mk(1, [2]int{20, 10}, full(), full(), full()) // inverted interval
	if _, err := s.Insert(p); err == nil {
		t.Error("storing an empty-box placement should fail")
	}
}

func TestGetOutOfRange(t *testing.T) {
	c, fp := pairCircuit()
	s := NewStructure(c, fp)
	if s.Get(-1) != nil || s.Get(0) != nil || s.Get(99) != nil {
		t.Error("Get on empty structure should return nil")
	}
}
