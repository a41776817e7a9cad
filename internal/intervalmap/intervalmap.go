// Package intervalmap derives the per-block, per-dimension rows of the
// paper's Figure 3 from their registrations: each placement is registered
// on one integer interval per row, and the row is the ascending list of
// non-overlapping intervals, each carrying the placements valid on it —
// the W_i / H_i functions of paper eq. 3.
//
// A row is a function of its registrations alone: its intervals are the
// maximal runs of values on which the same non-empty set of placements is
// registered. A Sweeper finds those runs in one pass: it sorts the
// registrations' breakpoints (every interval's start, and the value past
// its end) into buckets, walks them in ascending order while toggling
// each registration's bit in a mask, and emits the mask between
// consecutive breakpoints wherever it is non-empty. Rows are therefore
// built, never edited; core.Compile copies each sweep's intervals and
// masks into its flat tables.
package intervalmap

import (
	"math"
	"slices"
)

// Sweeper derives rows from registrations: slot k of a sweep is registered
// on the inclusive interval [lo[k], hi[k]], and a slot with hi[k] < lo[k]
// is not registered at all. The zero value is ready to use. A Sweeper
// keeps its scratch buffers between sweeps, so it is not safe for
// concurrent use.
type Sweeper struct {
	vals []int    // per event, its breakpoint
	code []int32  // per event, slot<<1 where the slot starts, slot<<1|1 past its end
	key  []int32  // per event, its breakpoint's bucket
	cuts []int    // the distinct breakpoints, ascending
	ends []int32  // per breakpoint, the end of its events in ev
	ev   []int32  // the event codes grouped by breakpoint
	mask []uint64 // the slots registered on the current interval
}

// Sweep calls emit once per interval of the row the registrations define,
// in ascending order: [lo, hi] is a maximal run of values on which the
// same non-empty set of slots is registered, and mask holds that set (bit
// k%64 of word k/64 is slot k). mask is reused between calls and must not
// be modified or retained.
//
// The breakpoints are every lo[k] and every hi[k]+1, with hi[k]+1 never
// computed for hi[k] == math.MaxInt, so registrations may reach either end
// of the int range. A breakpoint always changes the set, since some slot
// starts or stops there and none does both, so consecutive intervals
// differ and need no merging.
func (sw *Sweeper) Sweep(lo, hi []int, emit func(lo, hi int, mask []uint64)) {
	sw.bucket(lo, hi)
	cuts, ends, ev := sw.cuts, sw.ends, sw.ev
	words := (len(lo) + 63) / 64
	mask := slices.Grow(sw.mask[:0], words)[:words]
	clear(mask)
	sw.mask = mask
	active, begin := 0, int32(0)
	for c, v := range cuts {
		for _, e := range ev[begin:ends[c]] {
			k := e >> 1
			if e&1 == 0 {
				mask[k>>6] |= 1 << (k & 63)
				active++
			} else {
				mask[k>>6] &^= 1 << (k & 63)
				active--
			}
		}
		begin = ends[c]
		if active == 0 {
			continue
		}
		// Past the last breakpoint only registrations ending at MaxInt
		// are still open.
		end := math.MaxInt
		if c+1 < len(cuts) {
			end = cuts[c+1] - 1
		}
		emit(v, end, mask)
	}
}

// bucket groups the registrations' events by breakpoint: sw.cuts holds
// the distinct breakpoints in ascending order, and breakpoint c's events
// are sw.ev[sw.ends[c-1]:sw.ends[c]] (from 0 for c = 0). It is a counting
// sort, keyed by a breakpoint's offset from the smallest when the
// breakpoints lie within a few times their number of each other, as
// designer dimension ranges do, and otherwise by its rank among the
// sorted distinct breakpoints.
func (sw *Sweeper) bucket(lo, hi []int) {
	vals, code := slices.Grow(sw.vals[:0], 2*len(lo)), slices.Grow(sw.code[:0], 2*len(lo))
	for k := range lo {
		if lo[k] <= hi[k] {
			vals = append(vals, lo[k])
			code = append(code, int32(k)<<1)
			if hi[k] < math.MaxInt {
				vals = append(vals, hi[k]+1)
				code = append(code, int32(k)<<1|1)
			}
		}
	}
	sw.vals, sw.code = vals, code
	if len(vals) == 0 {
		sw.cuts, sw.ends, sw.ev = sw.cuts[:0], sw.ends[:0], sw.ev[:0]
		return
	}
	first, last := slices.Min(vals), slices.Max(vals)
	key := slices.Grow(sw.key[:0], len(vals))[:len(vals)]
	sw.key = key
	var buckets int
	cuts := sw.cuts[:0]
	// uint(last)-uint(first) is the exact distance, even across the whole
	// int range.
	dense := uint(last)-uint(first) < 4*uint(len(vals))
	if dense {
		buckets = last - first + 1
		for e, v := range vals {
			key[e] = int32(v - first)
		}
	} else {
		cuts = append(cuts, vals...)
		slices.Sort(cuts)
		cuts = slices.Compact(cuts)
		buckets = len(cuts)
		for e, v := range vals {
			i, _ := slices.BinarySearch(cuts, v)
			key[e] = int32(i)
		}
	}

	// Count each bucket's events one place up, prefix-sum into bucket
	// starts, then place the events: each bucket's cursor ends where the
	// bucket does.
	ends := slices.Grow(sw.ends[:0], buckets+1)[:buckets+1]
	clear(ends)
	for _, b := range key {
		ends[b+1]++
	}
	for b := 1; b <= buckets; b++ {
		ends[b] += ends[b-1]
	}
	ev := slices.Grow(sw.ev[:0], len(vals))[:len(vals)]
	for e, b := range key {
		ev[ends[b]] = code[e]
		ends[b]++
	}
	ends = ends[:buckets]
	if dense {
		// Keep the buckets holding events, in place: bucket b is value
		// first+b.
		begin := int32(0)
		for b, end := range ends {
			if end > begin {
				cuts = append(cuts, first+b)
				ends[len(cuts)-1] = end
				begin = end
			}
		}
		ends = ends[:len(cuts)]
	}
	sw.cuts, sw.ends, sw.ev = cuts, ends, ev
}
