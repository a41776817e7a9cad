package core

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// coverMismatch compares mi.Cover on (ws, hs) with every member's own
// QueryID. Member m's merged slot must name the placement its QueryID
// names, or be -1 when QueryID reports no placement or an error, and
// Cover's error must be the first member's error, text for text. It
// returns "" when they agree.
func coverMismatch(mi *MergedIndex, ws, hs []int) string {
	slots := make([]int, len(mi.members))
	err := mi.Cover(ws, hs, slots)
	var wantErr error
	for m, cs := range mi.members {
		got := -1
		if slots[m] >= 0 {
			got = int(cs.slotID[slots[m]])
		}
		id, qerr := cs.QueryID(ws, hs)
		if qerr != nil && !errors.Is(qerr, ErrUncovered) && wantErr == nil {
			wantErr = qerr
		}
		if got != id {
			return fmt.Sprintf("member %d: merged slot names placement %d, its QueryID %d (err %v)", m, got, id, qerr)
		}
	}
	if fmt.Sprint(err) != fmt.Sprint(wantErr) {
		return fmt.Sprintf("Cover error %v, want %v", err, wantErr)
	}
	return ""
}

// mergeMembers returns members on codecStructure's 25-placement circuit
// whose breakpoints differ: the codec structure itself, the same boxes
// shifted by two, 70 narrow boxes (two mask words), an empty structure,
// and two structures that violate eq. 5 on block a widths 9..10 with
// different placements (0 and 1 in bad, 1 and 2 in bad2).
func mergeMembers(t *testing.T) (codec, shifted, dense, empty, bad, bad2 *CompiledStructure) {
	t.Helper()
	s, c := codecStructure(t, 25)
	build := func(boxes [][2]int, other func(i int) [2]int) *CompiledStructure {
		st := NewStructure(c, s.fp)
		for i, a := range boxes {
			p := mk(1, a, [2]int{1, 40}, other(i), [2]int{1, 40})
			p.X = []int{0, 100, 200, 300}
			p.Y = []int{0, 100, 200, 300}
			p.WLo = append(p.WLo, 1, 1+i%3)
			p.WHi = append(p.WHi, 40, 40)
			p.HLo = append(p.HLo, 1, 1)
			p.HHi = append(p.HHi, 40-i%4, 40)
			if _, err := storePlacement(st, p); err != nil {
				t.Fatal(err)
			}
		}
		return Compile(st)
	}
	var shiftedBoxes, denseBoxes [][2]int
	for i := 0; i < 24; i++ {
		shiftedBoxes = append(shiftedBoxes, [2]int{4*i + 3, 4*i + 6})
	}
	for i := 0; i < 70; i++ {
		denseBoxes = append(denseBoxes, [2]int{2*i + 1, 2*i + 2})
	}
	return Compile(s),
		build(shiftedBoxes, func(i int) [2]int { return [2]int{1 + i%5, 30 + i%7} }),
		build(denseBoxes, func(i int) [2]int { return [2]int{1, 40 - i%9} }),
		build(nil, nil),
		build([][2]int{{5, 10}, {8, 12}, {20, 30}}, func(int) [2]int { return [2]int{1, 40} }),
		build([][2]int{{1, 2}, {8, 12}, {9, 10}}, func(int) [2]int { return [2]int{1, 40} })
}

// TestMergedCoverMatchesMembers checks Merge and Cover against each
// member's own index: members with different breakpoints, one- and
// two-word masks, an empty member and a member violating eq. 5, merged in
// several orders, over in-bounds, out-of-bounds and wrong-length queries.
func TestMergedCoverMatchesMembers(t *testing.T) {
	codec, shifted, dense, empty, bad, bad2 := mergeMembers(t)
	merges := [][]*CompiledStructure{
		{codec},
		{codec, shifted},
		{shifted, codec},
		{codec, dense, empty, shifted},
		{empty, dense},
		{dense, codec, bad},
		{bad, dense},
		{bad2, codec, bad},
	}
	rng := rand.New(rand.NewSource(17))
	n := codec.n
	ws, hs := make([]int, n), make([]int, n)
	multi, violations := 0, 0
	for i, members := range merges {
		mi := Merge(members)
		for trial := 0; trial < 2000; trial++ {
			randomDims(codec.src, rng, ws, hs)
			for b := 1; b < n; b++ {
				ws[b] = 1 + rng.Intn(40) // inside most boxes: block a decides
			}
			switch trial % 10 {
			case 0:
				ws[rng.Intn(n)] = 0 // below every designer bound
			case 1:
				ws[0] = 9 + rng.Intn(2) // inside both bad members' overlaps
			}
			qws := ws
			if trial%50 == 0 {
				qws = ws[:n-1]
			}
			if d := coverMismatch(mi, qws, hs); d != "" {
				t.Fatalf("merge %d, query %v/%v: %s", i, qws, hs, d)
			}
			covering := 0
			for _, cs := range members {
				if _, err := cs.QueryID(qws, hs); err == nil {
					covering++
				} else if strings.Contains(err.Error(), "eq.5") {
					violations++
				}
			}
			if covering >= 2 {
				multi++
			}
		}
	}
	if multi < 100 || violations < 100 {
		t.Fatalf("%d multiply covered queries and %d eq. 5 violations, want >= 100 each", multi, violations)
	}
}

// TestMergeSharesOneMember pins the K=1 merge: it answers from member 0's
// own tables rather than a copy.
func TestMergeSharesOneMember(t *testing.T) {
	codec, _, _, _, _, _ := mergeMembers(t)
	mi := Merge([]*CompiledStructure{codec})
	if mi.tab != &codec.rowTable {
		t.Fatal("one-member merge copied its member's tables")
	}
	if want := 4*(len(codec.rowStart)+2*len(codec.spanLo)) + 8*len(codec.masks); mi.Bytes() != want {
		t.Fatalf("Bytes() = %d, want %d", mi.Bytes(), want)
	}
}
