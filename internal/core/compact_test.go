package core

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"mps/internal/placement"
)

// TestCompactMergesForkFragments: forcing a fork and then removing its
// cause must let Compact re-merge the halves... but the cause stays stored
// here, so instead we verify the canonical case: two manually inserted
// abutting boxes with identical coordinates collapse into one.
func TestCompactMergesAbuttingBoxes(t *testing.T) {
	c, fp := pairCircuit()
	s := NewStructure(c, fp)
	// Same coordinates, same cost, abutting w0 intervals.
	if _, err := s.Insert(mk(2.0, [2]int{10, 20}, full(), full(), full())); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Insert(mk(2.0, [2]int{21, 40}, full(), full(), full())); err != nil {
		t.Fatal(err)
	}
	if s.NumPlacements() != 2 {
		t.Fatalf("setup: %d placements, want 2", s.NumPlacements())
	}
	if got := s.Compact(); got != 1 {
		t.Fatalf("Compact = %d merges, want 1", got)
	}
	if s.NumPlacements() != 1 {
		t.Fatalf("after compact: %d placements, want 1", s.NumPlacements())
	}
	p, err := s.Query([]int{15, 5}, []int{5, 5})
	if err != nil {
		t.Fatal(err)
	}
	if p.WLo[0] != 10 || p.WHi[0] != 40 {
		t.Errorf("merged interval [%d,%d], want [10,40]", p.WLo[0], p.WHi[0])
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestCompactRefusesGapsAndDifferentCoords(t *testing.T) {
	c, fp := pairCircuit()
	s := NewStructure(c, fp)
	// Gap between 20 and 22.
	if _, err := s.Insert(mk(2.0, [2]int{10, 20}, full(), full(), full())); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Insert(mk(2.0, [2]int{22, 40}, full(), full(), full())); err != nil {
		t.Fatal(err)
	}
	if got := s.Compact(); got != 0 {
		t.Errorf("gap: Compact = %d merges, want 0", got)
	}

	s2 := NewStructure(c, fp)
	a := mk(2.0, [2]int{10, 20}, full(), full(), full())
	b := mk(2.0, [2]int{21, 40}, full(), full(), full())
	b.X[0] = 5 // different coordinates: not the same placement
	if _, err := s2.Insert(a); err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Insert(b); err != nil {
		t.Fatal(err)
	}
	if got := s2.Compact(); got != 0 {
		t.Errorf("coords differ: Compact = %d merges, want 0", got)
	}
}

func TestCompactRefusesTwoDifferingRows(t *testing.T) {
	c, fp := pairCircuit()
	s := NewStructure(c, fp)
	// Differ in w0 (abutting) AND h0: union is L-shaped, not a box.
	if _, err := s.Insert(mk(2.0, [2]int{10, 20}, [2]int{1, 50}, full(), full())); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Insert(mk(2.0, [2]int{21, 40}, [2]int{51, 100}, full(), full())); err != nil {
		t.Fatal(err)
	}
	if got := s.Compact(); got != 0 {
		t.Errorf("two differing rows: Compact = %d merges, want 0", got)
	}
}

// TestCompactAfterForkRestoresStructureSize: insert a low-cost middle cut
// through a stored box (forcing a fork), then verify Compact reunites
// whatever fragments remain mergeable and never changes query results.
func TestCompactPreservesQuerySemantics(t *testing.T) {
	c, fp := pairCircuit()
	s := NewStructure(c, fp)
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 40; i++ {
		lo := 1 + rng.Intn(80)
		hi := lo + rng.Intn(101-lo)
		hlo := 1 + rng.Intn(80)
		hhi := hlo + rng.Intn(101-hlo)
		p := mk(1+rng.Float64()*9, [2]int{lo, hi}, [2]int{hlo, hhi}, full(), full())
		if _, err := s.Insert(p); err != nil {
			t.Fatal(err)
		}
	}
	before := s.NumPlacements()

	// Record query answers (by coordinates, since IDs change on merge).
	type answer struct {
		ok bool
		x0 int
		y0 int
	}
	probe := func() []answer {
		out := make([]answer, 0, 400)
		prng := rand.New(rand.NewSource(5))
		for k := 0; k < 400; k++ {
			ws := []int{1 + prng.Intn(100), 1 + prng.Intn(100)}
			hs := []int{1 + prng.Intn(100), 1 + prng.Intn(100)}
			p, err := s.Query(ws, hs)
			if err != nil {
				out = append(out, answer{})
				continue
			}
			out = append(out, answer{true, p.X[0], p.Y[0]})
		}
		return out
	}
	beforeAnswers := probe()
	merges := s.Compact()
	afterAnswers := probe()

	if !reflect.DeepEqual(beforeAnswers, afterAnswers) {
		t.Fatal("Compact changed query results")
	}
	if s.NumPlacements() != before-merges {
		t.Errorf("placements %d, want %d - %d merges", s.NumPlacements(), before, merges)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Idempotence.
	if again := s.Compact(); again != 0 {
		t.Errorf("second Compact performed %d merges, want 0", again)
	}
}

func TestCompactWeightsAvgCost(t *testing.T) {
	c, fp := pairCircuit()
	s := NewStructure(c, fp)
	// Interval lengths 11 ([10,20]) and 20 ([21,40]).
	a := mk(1.0, [2]int{10, 20}, full(), full(), full())
	b := mk(4.0, [2]int{21, 40}, full(), full(), full())
	b.BestCost = 0.1 // b is the better half
	b.BestW = []int{30, 30}
	b.BestH = []int{30, 30}
	if _, err := s.Insert(a); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Insert(b); err != nil {
		t.Fatal(err)
	}
	if got := s.Compact(); got != 1 {
		t.Fatalf("Compact = %d, want 1", got)
	}
	m := s.Get(s.IDs()[0])
	want := (1.0*11 + 4.0*20) / 31
	if diff := m.AvgCost - want; diff < -1e-9 || diff > 1e-9 {
		t.Errorf("merged AvgCost = %g, want %g", m.AvgCost, want)
	}
	if m.BestCost != 0.1 {
		t.Errorf("merged BestCost = %g, want better half's 0.1", m.BestCost)
	}
	if m.BestW == nil || m.BestW[0] != 30 {
		t.Errorf("merged BestW = %v, want better half's", m.BestW)
	}
}

// TestCompactChain merges a run of three fragments into one.
func TestCompactChain(t *testing.T) {
	c, fp := pairCircuit()
	s := NewStructure(c, fp)
	for _, iv := range [][2]int{{1, 10}, {11, 30}, {31, 55}} {
		if _, err := s.Insert(mk(2.0, iv, full(), full(), full())); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Compact(); got != 2 {
		t.Errorf("Compact = %d merges, want 2", got)
	}
	if s.NumPlacements() != 1 {
		t.Errorf("placements = %d, want 1", s.NumPlacements())
	}
	p := s.Get(s.IDs()[0])
	if p.WLo[0] != 1 || p.WHi[0] != 55 {
		t.Errorf("chain merged to [%d,%d], want [1,55]", p.WLo[0], p.WHi[0])
	}
}

// TestRenumberPacksIDsStably: after generation-style mutation (inserts
// with resolution, then Compact) the ID space has holes; Renumber must
// pack it densely without changing any query answer, and a renumbered
// structure's IDs must survive a save/load round trip — the property the
// cluster's artifact fetch relies on for replica-identical placement_ids.
func TestRenumberPacksIDsStably(t *testing.T) {
	c, fp := pairCircuit()
	s := NewStructure(c, fp)
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 40; i++ {
		lo := 1 + rng.Intn(80)
		hi := lo + rng.Intn(101-lo)
		hlo := 1 + rng.Intn(80)
		hhi := hlo + rng.Intn(101-hlo)
		p := mk(1+rng.Float64()*9, [2]int{lo, hi}, [2]int{hlo, hhi}, full(), full())
		if _, err := s.Insert(p); err != nil {
			t.Fatal(err)
		}
	}
	s.Compact()

	probe := func(st *Structure) [][2]int {
		out := make([][2]int, 0, 400)
		prng := rand.New(rand.NewSource(5))
		for k := 0; k < 400; k++ {
			ws := []int{1 + prng.Intn(100), 1 + prng.Intn(100)}
			hs := []int{1 + prng.Intn(100), 1 + prng.Intn(100)}
			p, err := st.Query(ws, hs)
			if err != nil {
				out = append(out, [2]int{-1, -1})
				continue
			}
			out = append(out, [2]int{p.X[0], p.Y[0]})
		}
		return out
	}
	before := probe(s)

	s.Renumber()
	ids := s.IDs()
	if len(ids) != s.NumPlacements() {
		t.Fatalf("%d ids for %d live placements", len(ids), s.NumPlacements())
	}
	for want, id := range ids {
		if id != want {
			t.Fatalf("ids %v not dense after Renumber", ids)
		}
		if got := s.Get(id); got == nil || got.ID != id {
			t.Fatalf("placement at id %d has ID %v", id, got)
		}
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(before, probe(s)) {
		t.Fatal("Renumber changed query results")
	}

	// ID stability across the wire format.
	var buf bytes.Buffer
	if err := s.SaveBinaryCompiled(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf, c)
	if err != nil {
		t.Fatal(err)
	}
	prng := rand.New(rand.NewSource(7))
	for k := 0; k < 400; k++ {
		ws := []int{1 + prng.Intn(100), 1 + prng.Intn(100)}
		hs := []int{1 + prng.Intn(100), 1 + prng.Intn(100)}
		want, errA := Compile(s).QueryID(ws, hs)
		got, errB := Compile(loaded).QueryID(ws, hs)
		if (errA == nil) != (errB == nil) || want != got {
			t.Fatalf("query %d: id %d (err %v) before save, %d (err %v) after", k, want, errA, got, errB)
		}
	}

	// Idempotence: a dense structure renumbers to itself.
	s.Renumber()
	if !reflect.DeepEqual(ids, s.IDs()) {
		t.Fatal("second Renumber changed IDs")
	}
}

// interleavedGroups stores six placements in two coordinate groups whose
// merges interleave in (a, b) order. Group 1 (block 1 anchored at x 200)
// holds A=0, B=2, C=5, where only B and C merge at first and their merged
// piece then merges with A, a lower ID than B. Group 2 (x 210) holds
// D=1, E=3, F=4 as three abutting block-1 widths. The boxes of the two
// groups are disjoint in block 1's width.
func interleavedGroups(t *testing.T) *Structure {
	t.Helper()
	c, fp := pairCircuit()
	s := NewStructure(c, fp)
	g1, g2 := [2]int{51, 100}, [2]int{1, 40}
	group2 := func(avg float64, w1 [2]int) *placement.Placement {
		p := mk(avg, g2, full(), w1, full())
		p.X[1] = 210
		return p
	}
	for _, p := range []*placement.Placement{
		mk(3.0, [2]int{1, 10}, full(), g1, full()),           // 0: A
		group2(2.5, [2]int{1, 10}),                           // 1: D
		mk(4.0, [2]int{11, 20}, [2]int{1, 50}, g1, full()),   // 2: B
		group2(1.5, [2]int{11, 20}),                          // 3: E
		group2(5.0, [2]int{21, 30}),                          // 4: F
		mk(2.0, [2]int{11, 20}, [2]int{51, 100}, g1, full()), // 5: C
	} {
		if _, err := s.Insert(p); err != nil {
			t.Fatal(err)
		}
	}
	if s.NumPlacements() != 6 || len(s.placements) != 6 {
		t.Fatalf("setup: %d placements in %d slots, want 6 in 6", s.NumPlacements(), len(s.placements))
	}
	return s
}

// TestCompactMatchesRestartInterleaved: on two coordinate groups whose
// mergeable pairs interleave, Compact performs the restart scan's merges
// in its order — (1,3)→6 in group 2, (2,5)→7 and (0,7)→8 in group 1,
// then (4,6)→9 in group 2 — so IDs, boxes, costs and the v3 bytes after
// Renumber all agree. A scan that resumed after a merge instead of
// restarting would miss (0,7), whose lower ID precedes the merged pair.
func TestCompactMatchesRestartInterleaved(t *testing.T) {
	got, want := interleavedGroups(t), interleavedGroups(t)
	if m := CompactRestart(want); m != 4 {
		t.Fatalf("reference: %d merges, want 4", m)
	}
	if m := got.Compact(); m != 4 {
		t.Fatalf("Compact: %d merges, want 4", m)
	}
	if ids := got.IDs(); !reflect.DeepEqual(ids, []int{8, 9}) {
		t.Fatalf("IDs after Compact %v, want [8 9]", ids)
	}
	if err := SameStructure(got, want); err != nil {
		t.Fatal(err)
	}
	if err := got.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	got.Renumber()
	want.Renumber()
	if !bytes.Equal(v3Bytes(t, got), v3Bytes(t, want)) {
		t.Fatal("v3 bytes after Renumber differ from the restart scan's")
	}
}
