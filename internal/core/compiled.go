package core

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"

	"mps/internal/geom"
	"mps/internal/intervalmap"
	"mps/internal/netlist"
)

// This file implements the compiled query index: the one index over a
// Structure's rows, built once after generation (or loading) and queried
// forever after. It finds one span in each of 2N sorted []int32
// breakpoint arrays laid out back to back, starting where the row's own
// layout puts it (findSpan), and intersects placement *bitsets* — one
// W-word mask per interval — so a query is a handful of contiguous cache
// lines, a compare or two per row and word-wide ANDs, with zero
// allocations.
// Structure.Query and Instantiate answer the same function by scanning
// the box table; they are the reference this index is tested against.
//
// Memory layout (structure of arrays). The row tables are a rowTable, the
// one search-and-AND form a compiled structure and a merged portfolio
// index (merged.go) share:
//
//	rowStart [2N+1]  row r's spans live at span indices
//	                 [rowStart[r], rowStart[r+1])
//	spanLo   [S]     per-span inclusive lower breakpoint, ascending per row
//	spanHi   [S]     per-span inclusive upper breakpoint
//	masks    [S*W]   per-span placement bitset, W words per span; bit b of
//	                 span s is masks[s*W + b/64]>>(b%64): placement slot b
//	                 is valid on span s
//
// and, per compiled structure, with W = ⌈P/64⌉:
//
//	slotID   [P]     slot -> original placement ID
//	xs, ys   [P*N]   block anchors by slot (slot*N + block)
//
// Rows interleave width and height per block — row 2i is block i's width
// row, row 2i+1 its height row — matching the order the intersection loop
// visits them. Placement IDs are re-indexed to dense slots so the bitsets
// and anchor tables stay hole-free when placements were deleted during
// generation; results are mapped back to original IDs on the way out, so
// compiled answers are indistinguishable from the reference scan's.

// CompiledStructure is the flat form of a Structure. Build one with
// Compile; it shares the source structure's circuit, designer-bound
// validation and backup, and answers Lookup/QueryID/Instantiate with
// results identical to the source structure's LookupLinear, Query and
// Instantiate. It is safe for any number of concurrent readers (each
// query intersects into a stack-resident or pooled mask); it must only be
// built after generation has finished.
type CompiledStructure struct {
	// src supplies the circuit (dimension validation) and the backup
	// fallback; the flat tables below answer every covered query without
	// touching it.
	src *Structure

	rowTable
	count int // live placements (dense slots 0..count-1)

	slotID []int32
	xs, ys []int32
}

// rowTable is the eqs. 3–4 index over flat tables: 2n rows of sorted,
// disjoint spans, each span carrying a words-wide placement bitset. A
// query finds one span per row (findSpan) and ANDs their masks.
type rowTable struct {
	n     int // blocks; the table has 2n rows
	words int // mask words per span

	rowStart []int32
	spanLo   []int32
	spanHi   []int32
	masks    []uint64

	// scratch pools intersection masks (*[]uint64) wider than the
	// caller's stack buffer.
	scratch sync.Pool
}

// maxStackWords is the single-structure intersection mask (in 64-bit
// words) kept on the stack: structures up to 1024 placements never touch
// the pool. Balanced-effort TwoStageOpamp structures run past it (seeds 4,
// 8 and 13 hold 1191, 1044 and 1034 placements, and member 1 of the
// benchmark's portfolio 1094); they take their mask from the pool, which
// costs no allocation once warm.
const maxStackWords = 16

// Compile builds the structure's CompiledStructure. The result is cached
// on the structure — repeated calls return the same index until a
// mutation (Insert, Compact, Renumber) invalidates it — so callers can
// treat Compile as cheap after the first call. Compile panics if any
// breakpoint or anchor exceeds the int32 range; every benchmark circuit
// and every structure accepted by Load is orders of magnitude below it.
func Compile(s *Structure) *CompiledStructure {
	if cs := s.compiled.Load(); cs != nil {
		return cs
	}
	cs := compile(s)
	s.compiled.Store(cs)
	return cs
}

// compile builds the flat tables. Each of the 2N rows comes from one
// sweep over the live placements' intervals in the box table (see
// intervalmap.Sweeper), whose span masks are already the slot bitsets the
// table stores, so the cost is linear in the row's registrations (plus a
// sort when its breakpoints are sparse) and in the spans' mask words.
// The sweeps append to pooled scratch, and the span tables are copied out
// of it once, at their exact size, so a compile allocates little beyond
// the tables it returns.
func compile(s *Structure) *CompiledStructure {
	n, count := s.circuit.N(), s.alive
	cs := &CompiledStructure{
		src:      s,
		rowTable: rowTable{n: n, words: (count + 63) / 64, rowStart: make([]int32, 2*n+1)},
		count:    count,
		slotID:   make([]int32, 0, count),
		xs:       make([]int32, 0, count*n),
		ys:       make([]int32, 0, count*n),
	}
	sc := compileScratch.Get().(*compileBuffers)
	defer compileScratch.Put(sc)

	// Dense re-index: slot order follows ID order, so bit order is
	// ascending ID order.
	ids := sc.ids[:0]
	for id, r := range s.recs {
		if r == nil {
			continue
		}
		ids = append(ids, id)
		cs.slotID = append(cs.slotID, toI32(id, "placement id"))
		for i := 0; i < n; i++ {
			cs.xs = append(cs.xs, toI32(r.X[i], "block x anchor"))
			cs.ys = append(cs.ys, toI32(r.Y[i], "block y anchor"))
		}
	}
	lo := slices.Grow(sc.lo[:0], count)[:count]
	hi := slices.Grow(sc.hi[:0], count)[:count]
	spanLo, spanHi, masks := sc.spanLo[:0], sc.spanHi[:0], sc.masks[:0]
	emit := func(l, h int, mask []uint64) {
		spanLo = append(spanLo, toI32(l, "interval breakpoint"))
		spanHi = append(spanHi, toI32(h, "interval breakpoint"))
		masks = append(masks, mask...)
	}
	for r := 0; r < 2*n; r++ {
		cs.rowStart[r] = int32(len(spanLo))
		for k, id := range ids { // row r's intervals, from the box table
			lo[k], hi[k] = s.boxes[4*n*id+2*r], s.boxes[4*n*id+2*r+1]
		}
		sc.sw.Sweep(lo, hi, emit)
	}
	cs.rowStart[2*n] = int32(len(spanLo))
	cs.spanLo = append([]int32(nil), spanLo...)
	cs.spanHi = append([]int32(nil), spanHi...)
	cs.masks = append([]uint64(nil), masks...)
	sc.ids, sc.lo, sc.hi, sc.spanLo, sc.spanHi, sc.masks = ids, lo, hi, spanLo, spanHi, masks
	return cs
}

// compileBuffers is compile's working memory, kept between compiles in
// compileScratch: the live IDs, one row's intervals, the sweeper, and
// every row's spans before the exact copy.
type compileBuffers struct {
	sw             intervalmap.Sweeper
	ids, lo, hi    []int
	spanLo, spanHi []int32
	masks          []uint64
}

var compileScratch = sync.Pool{New: func() any { return new(compileBuffers) }}

// toI32 narrows a table value, panicking on the (never-seen-in-practice)
// overflow rather than silently answering queries from truncated tables.
func toI32(v int, what string) int32 {
	if v < math.MinInt32 || v > math.MaxInt32 {
		panic(fmt.Sprintf("core: %s %d exceeds the compiled int32 range", what, v))
	}
	return int32(v)
}

// Circuit returns the topology the compiled index answers for.
func (cs *CompiledStructure) Circuit() *netlist.Circuit { return cs.src.circuit }

// Floorplan returns the floorplan the placements live on.
func (cs *CompiledStructure) Floorplan() geom.Rect { return cs.src.fp }

// NumPlacements returns the number of stored placements in the index.
func (cs *CompiledStructure) NumPlacements() int { return cs.count }

// NumSpans returns the total interval count across all 2N rows — the S of
// the memory-layout comment, a proxy for the index's footprint.
func (cs *CompiledStructure) NumSpans() int { return len(cs.spanLo) }

// rowLen returns the number of spans in row r.
func (t *rowTable) rowLen(r int) int { return int(t.rowStart[r+1] - t.rowStart[r]) }

// findSpan returns the span of row r that covers v, or -1 when no span of
// the row does. Row spans are ascending, disjoint integer intervals, so
// the last span with Lo <= v is the only candidate, and each span starts
// at least one value after the one before it: span first+k has
// Lo >= Lo_first + k, and likewise span last−k has Hi <= Hi_last − k. So
// the candidate lies at most v − Lo_first spans after the row's first
// and at most Hi_last − v spans before its last. findSpan starts at the
// first bound and walks down to the candidate, which is never below the
// second. On a dense row (one span per value, as generated rows nearly
// are) the first bound is the candidate and the walk takes no step; on a
// sparse row it takes at most the row's slack, Hi_last − Lo_first + 1
// minus its span count. A bisection of that window would not fit the
// inliner's budget, and intersect calls findSpan once per row.
//
// An empty row and v below Lo_first return -1 before any arithmetic; v
// above Hi_last stops the walk at once and fails the Hi check. From
// Lo_first up, v − Lo_first is exact as a uint whatever the width of int,
// so the bound never overflows.
func (t *rowTable) findSpan(r, v int) int {
	lo, hi := int(t.rowStart[r]), int(t.rowStart[r+1])-1
	if lo > hi || v < int(t.spanLo[lo]) {
		return -1
	}
	hi = lo + int(min(uint(hi-lo), uint(v-int(t.spanLo[lo]))))
	for int(t.spanLo[hi]) > v {
		hi--
	}
	if v > int(t.spanHi[hi]) {
		return -1
	}
	return hi
}

// intersect computes the eq. 4 row intersection into the acc mask (len
// t.words) and reports whether any placement survived: one span per row,
// ANDed word by word.
func (t *rowTable) intersect(acc []uint64, ws, hs []int) bool {
	w := t.words
	first := true
	for i := 0; i < t.n; i++ {
		for dim := 0; dim < 2; dim++ {
			v := ws[i]
			if dim == 1 {
				v = hs[i]
			}
			s := t.findSpan(2*i+dim, v)
			if s < 0 {
				return false
			}
			off := s * w
			if first {
				copy(acc, t.masks[off:off+w])
				first = false
				continue
			}
			nz := uint64(0)
			for k := range acc {
				acc[k] &= t.masks[off+k]
				nz |= acc[k]
			}
			if nz == 0 {
				return false
			}
		}
	}
	return !first
}

// mask returns the intersection buffer for one query: buf (the caller's
// stack array) cut to t.words when it is wide enough, else a pooled
// buffer (returned by putMask; putMask of nil is a no-op).
func (t *rowTable) mask(buf []uint64) ([]uint64, *[]uint64) {
	if t.words <= len(buf) {
		return buf[:t.words], nil
	}
	sp, _ := t.scratch.Get().(*[]uint64)
	if sp == nil || cap(*sp) < t.words {
		sp = new([]uint64)
		*sp = make([]uint64, t.words)
	}
	return (*sp)[:t.words], sp
}

func (t *rowTable) putMask(sp *[]uint64) {
	if sp != nil {
		t.scratch.Put(sp)
	}
}

// maskCountFirst returns the population count of acc and the lowest set
// slot (-1 when empty).
func maskCountFirst(acc []uint64) (count int, slot int) {
	slot = -1
	for k, word := range acc {
		if word == 0 {
			continue
		}
		if slot < 0 {
			slot = k*64 + bits.TrailingZeros64(word)
		}
		count += bits.OnesCount64(word)
	}
	return count, slot
}

// lookupUnique runs one covered-or-not intersection and returns the unique
// slot (count 1), or the count for the caller's 0/eq.5 handling.
func (cs *CompiledStructure) lookupUnique(ws, hs []int) (slot, count int) {
	var buf [maxStackWords]uint64
	acc, sp := cs.mask(buf[:])
	if !cs.intersect(acc, ws, hs) {
		cs.putMask(sp)
		return -1, 0
	}
	count, slot = maskCountFirst(acc)
	cs.putMask(sp)
	return slot, count
}

// Lookup returns the IDs of all stored placements covering the dimension
// vector, ascending — identical to Structure.LookupLinear on the source
// structure. The result is nil when uncovered and shares no memory with
// the index.
func (cs *CompiledStructure) Lookup(ws, hs []int) []int {
	var buf [maxStackWords]uint64
	acc, sp := cs.mask(buf[:])
	var out []int
	if cs.intersect(acc, ws, hs) {
		for k, word := range acc {
			for ; word != 0; word &= word - 1 {
				slot := k*64 + bits.TrailingZeros64(word)
				out = append(out, int(cs.slotID[slot]))
			}
		}
	}
	cs.putMask(sp)
	return out
}

// cover is the paper's function M over the flat tables, once for every
// query path: the dimension check, one eq. 4 intersection and the eq. 5
// uniqueness check. It returns the covering placement's slot, -1 (with a
// nil error) when no stored placement covers the vector, or the
// dimension or eq. 5 error.
func (cs *CompiledStructure) cover(ws, hs []int) (slot int, err error) {
	if err := cs.src.checkDims(ws, hs); err != nil {
		return -1, err
	}
	slot, count := cs.lookupUnique(ws, hs)
	if count > 1 {
		return -1, cs.eq5Error(count, ws, hs)
	}
	return slot, nil
}

// eq5Error is the error for count > 1 stored placements covering one
// dimension vector, naming them in ascending ID order.
func (cs *CompiledStructure) eq5Error(count int, ws, hs []int) error {
	return fmt.Errorf("core: eq.5 violated — %d placements cover one dimension vector: %v",
		count, cs.Lookup(ws, hs))
}

// QueryID implements the paper's function M over the flat tables: the
// unique covering placement's ID, ErrUncovered when nothing covers the
// vector (the backup is Instantiate's business, not QueryID's), or the
// eq. 5 violation error — exactly Structure.Query's behavior, minus the
// placement pointer.
func (cs *CompiledStructure) QueryID(ws, hs []int) (int, error) {
	slot, err := cs.cover(ws, hs)
	if err != nil {
		return -1, err
	}
	if slot < 0 {
		return -1, ErrUncovered
	}
	return int(cs.slotID[slot]), nil
}

// Instantiate answers a placement request from the flat tables, falling
// back to the source structure's backup for uncovered space — the same
// answer as Structure.Instantiate, the reference scan.
func (cs *CompiledStructure) Instantiate(ws, hs []int) (Result, error) {
	var res Result
	if err := cs.InstantiateInto(&res, ws, hs); err != nil {
		return Result{}, err
	}
	return res, nil
}

// InstantiateInto is Instantiate writing into res, reusing res.X and res.Y
// capacity — the zero-allocation serving hot path (covered queries
// allocate nothing once res has capacity, and one array for both anchor
// slices before; backup answers allocate in the backup). On error res is
// left unspecified.
func (cs *CompiledStructure) InstantiateInto(res *Result, ws, hs []int) error {
	slot, err := cs.cover(ws, hs)
	if err != nil {
		return err
	}
	return cs.AnswerInto(res, slot, ws, hs)
}

// AnswerInto writes the answer for slot, as the structure's own walk or a
// MergedIndex.Cover on the same dimensions (ws, hs) reported it, into res
// without walking the index again. A slot
// >= 0 copies that stored placement's anchors, reusing res.X and res.Y
// capacity; -1 answers from the backup, or returns ErrUncovered when none
// is installed.
func (cs *CompiledStructure) AnswerInto(res *Result, slot int, ws, hs []int) error {
	if slot >= 0 {
		cs.copyAnchors(res, slot)
		res.PlacementID = int(cs.slotID[slot])
		res.FromBackup = false
		return nil
	}
	b := cs.src.backup
	if b == nil {
		return ErrUncovered
	}
	x, y, err := b.Place(ws, hs)
	if err != nil {
		return fmt.Errorf("core: backup failed: %w", err)
	}
	res.X, res.Y = x, y
	res.PlacementID = -1
	res.FromBackup = true
	return nil
}

// spanSlots appends span s's set slots in ascending order — the id-list
// view of the bitset that a v3 file's compiled section stores.
func (cs *CompiledStructure) spanSlots(s int, out []int32) []int32 {
	off := s * cs.words
	for k := 0; k < cs.words; k++ {
		for word := cs.masks[off+k]; word != 0; word &= word - 1 {
			out = append(out, int32(k*64+bits.TrailingZeros64(word)))
		}
	}
	return out
}

// copyAnchors copies slot's anchors into res.X and res.Y, reusing their
// capacity. A result with room for neither — a fresh one — gets both from
// one allocation, X capped at its own length so appending to it never
// writes into Y.
func (cs *CompiledStructure) copyAnchors(res *Result, slot int) {
	off := slot * cs.n
	if cap(res.X) < cs.n && cap(res.Y) < cs.n {
		a := make([]int, 2*cs.n)
		res.X, res.Y = a[:0:cs.n], a[cs.n:cs.n]
	}
	res.X = appendInt32s(res.X[:0], cs.xs[off:off+cs.n])
	res.Y = appendInt32s(res.Y[:0], cs.ys[off:off+cs.n])
}

// appendInt32s appends src widened to int, growing dst at most once.
func appendInt32s(dst []int, src []int32) []int {
	n := len(dst)
	dst = slices.Grow(dst, len(src))[:n+len(src)]
	for i, v := range src {
		dst[n+i] = int(v)
	}
	return dst
}
