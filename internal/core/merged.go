package core

import (
	"fmt"
	"slices"
)

// This file merges a portfolio's compiled members into one rowTable, so a
// routed query runs eqs. 3–4 once for all K members instead of once per
// member. Per row, the merged spans are the elementary intervals between
// every member span's Lo and Hi+1 that at least one member covers. Each
// merged span's mask concatenates one word-aligned segment per member:
//
//	seg      [K+1]   member i's bits are mask words [seg[i], seg[i+1]),
//	                 seg[i] = Σ_{j<i} ⌈P_j/64⌉; bit b of the segment is
//	                 member i's own slot b
//
// A segment is the covering member span's mask copied as is, or zeros
// where the member has no span. So after one AND chain every member's
// segment is exactly its own intersection, its slot numbers need no
// translation, and AnswerInto and Terms take them unchanged. Word
// alignment wastes fewer than 64 bits per member.

// MergedIndex is one compiled index over K member structures of one
// circuit. Cover answers, for every member at once, which of its stored
// placements covers a dimension vector. Like CompiledStructure it is
// read-only and safe for any number of concurrent readers.
type MergedIndex struct {
	members []*CompiledStructure
	tab     *rowTable
	seg     []int
}

// maxMergedStackWords is the merged intersection mask (in 64-bit words)
// kept on the stack. Three balanced-effort TwoStageOpamp members (up to
// about 1200 placements, 19 words, each) fit; the benchmark's K=3
// portfolio needs 40 words. Wider portfolios take a pooled mask.
const maxMergedStackWords = 64

// Merge builds the merged index over members, in member order. Members
// must be compiled for circuits with the same blocks and designer bounds;
// Merge panics when given no members or differing block counts. A
// one-member index answers from member 0's own tables, shared rather than
// copied.
func Merge(members []*CompiledStructure) *MergedIndex {
	if len(members) == 0 {
		panic("core: Merge of no members")
	}
	n := members[0].n
	mi := &MergedIndex{members: slices.Clone(members), seg: make([]int, len(members)+1)}
	for i, cs := range members {
		if cs.n != n {
			panic(fmt.Sprintf("core: Merge of a %d-block member with a %d-block member", cs.n, n))
		}
		mi.seg[i+1] = mi.seg[i] + cs.words
	}
	if len(members) == 1 {
		mi.tab = &members[0].rowTable
		return mi
	}
	t := &rowTable{n: n, words: mi.seg[len(members)], rowStart: make([]int32, 0, 2*n+1)}
	var cuts []int
	next := make([]int, len(members)) // per member: its first span in the row not yet passed
	for r := 0; r < 2*n; r++ {
		t.rowStart = append(t.rowStart, int32(len(t.spanLo)))
		cuts = cuts[:0]
		for m, cs := range members {
			next[m] = int(cs.rowStart[r])
			for s := cs.rowStart[r]; s < cs.rowStart[r+1]; s++ {
				cuts = append(cuts, int(cs.spanLo[s]), int(cs.spanHi[s])+1)
			}
		}
		slices.Sort(cuts)
		cuts = slices.Compact(cuts)
		for k := 0; k+1 < len(cuts); k++ {
			lo := cuts[k]
			off := len(t.masks)
			t.masks = append(t.masks, make([]uint64, t.words)...)
			covered := false
			for m, cs := range members {
				s, end := next[m], int(cs.rowStart[r+1])
				for s < end && int(cs.spanHi[s]) < lo {
					s++
				}
				next[m] = s
				if s == end || int(cs.spanLo[s]) > lo {
					continue
				}
				copy(t.masks[off+mi.seg[m]:off+mi.seg[m+1]], cs.masks[s*cs.words:(s+1)*cs.words])
				covered = true
			}
			if !covered {
				t.masks = t.masks[:off]
				continue
			}
			t.spanLo = append(t.spanLo, int32(lo))
			t.spanHi = append(t.spanHi, int32(cuts[k+1]-1))
		}
	}
	t.rowStart = append(t.rowStart, int32(len(t.spanLo)))
	mi.tab = t
	return mi
}

// Bytes returns the size of the index's row tables: row offsets,
// breakpoints and masks. A one-member index reports member 0's tables,
// which it shares.
func (mi *MergedIndex) Bytes() int {
	t := mi.tab
	return 4*(len(t.rowStart)+len(t.spanLo)+len(t.spanHi)) + 8*len(t.masks)
}

// Cover runs one dimension check and one eqs. 3–4 walk for every member
// and writes member i's covering slot to slots[i], or -1 when none of its
// stored placements covers (ws, hs); slots must have length K. The
// dimension error is member 0's, which every member shares. When a
// member's segment holds two or more placements, that member's slot is -1
// and Cover returns its eq. 5 error — the first such member's, in member
// order — after writing every other slot. The backup is never consulted.
func (mi *MergedIndex) Cover(ws, hs []int, slots []int) error {
	for m := range slots {
		slots[m] = -1
	}
	if err := mi.members[0].src.checkDims(ws, hs); err != nil {
		return err
	}
	var buf [maxMergedStackWords]uint64
	acc, sp := mi.tab.mask(buf[:])
	var err error
	if mi.tab.intersect(acc, ws, hs) {
		for m, cs := range mi.members {
			switch count, slot := maskCountFirst(acc[mi.seg[m]:mi.seg[m+1]]); {
			case count == 1:
				slots[m] = slot
			case count > 1 && err == nil:
				err = cs.eq5Error(count, ws, hs)
			}
		}
	}
	mi.tab.putMask(sp)
	return err
}
