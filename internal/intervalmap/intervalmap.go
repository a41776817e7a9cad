// Package intervalmap implements the per-block, per-dimension row structure
// of the paper's Figure 3: an ascending, non-overlapping linked list of
// integer intervals, each carrying the indices of the placements valid on
// that interval.
//
// A multi-placement structure holds 2N rows (one width row and one height
// row per block). Feeding a dimension value to a row walks the list to the
// covering interval and yields that interval's placement-index array — the
// W_i / H_i functions of paper eq. 3.
//
// A row is a function of its registrations alone: its intervals are the
// maximal runs of values on which the same non-empty set of placements is
// registered. A Sweeper derives those runs from the registrations in one
// pass, so rows are built, never edited: core.Compile copies the sweep's
// spans into its flat tables, and Build links them into the Row the tree
// query path walks.
package intervalmap

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
	"strings"

	"mps/internal/geom"
)

// node is one interval object of the linked list.
type node struct {
	iv   geom.Interval
	ids  []int // ascending placement indices valid on iv
	next *node
}

// Row is one ascending, non-overlapping interval list.
// The zero value is an empty row ready to use.
type Row struct {
	head  *node
	nodes int
}

// Len returns the number of interval objects in the row.
func (r *Row) Len() int { return r.nodes }

// Empty reports whether the row holds no intervals.
func (r *Row) Empty() bool { return r.head == nil }

// Lookup returns the placement indices whose interval covers v, or nil if v
// falls outside every interval. The returned slice is shared with the row
// and must not be modified.
func (r *Row) Lookup(v int) []int {
	for n := r.head; n != nil; n = n.next {
		if v < n.iv.Lo {
			return nil // list is ascending; v cannot appear later
		}
		if v <= n.iv.Hi {
			return n.ids
		}
	}
	return nil
}

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

// Build returns the row that registers ids[k] on [lo[k], hi[k]] for every
// slot k: Sweep's intervals, each carrying the ids of its slots. ids must
// be strictly ascending, so every interval's id array is too. The row's
// nodes share one backing array, and its id arrays another.
func (sw *Sweeper) Build(lo, hi, ids []int) *Row {
	var nodes []node
	var all []int
	sw.Sweep(lo, hi, func(l, h int, mask []uint64) {
		n := len(all)
		for w, word := range mask {
			for ; word != 0; word &= word - 1 {
				all = append(all, ids[w<<6|bits.TrailingZeros64(word)])
			}
		}
		nodes = append(nodes, node{iv: geom.NewInterval(l, h), ids: all[n:]})
	})
	// all may have moved as it grew: point every node into its final
	// backing array, and link the nodes, whose slice no longer grows.
	r := &Row{nodes: len(nodes)}
	off := 0
	for i := range nodes {
		k := len(nodes[i].ids)
		nodes[i].ids = all[off : off+k : off+k]
		off += k
		if i+1 < len(nodes) {
			nodes[i].next = &nodes[i+1]
		}
	}
	if len(nodes) > 0 {
		r.head = &nodes[0]
	}
	return r
}

// Visit calls fn for every interval of the row in ascending order, passing
// the interval and its placement-id array. The ids slice is shared with the
// row and must not be modified or retained. Unlike Snapshot, Visit allocates
// nothing.
func (r *Row) Visit(fn func(iv geom.Interval, ids []int)) {
	for n := r.head; n != nil; n = n.next {
		fn(n.iv, n.ids)
	}
}

// Span holds one interval and its placement ids — the exported snapshot form
// used for serialization and inspection.
type Span struct {
	Iv  geom.Interval
	IDs []int
}

// Snapshot returns the row contents in ascending order.
func (r *Row) Snapshot() []Span {
	var out []Span
	for n := r.head; n != nil; n = n.next {
		out = append(out, Span{Iv: n.iv, IDs: cloneIDs(n.ids)})
	}
	return out
}

// FromSnapshot reconstructs a row from Snapshot output.
func FromSnapshot(spans []Span) (*Row, error) {
	r := &Row{}
	var tail *node
	lastHi := 0
	for i, s := range spans {
		if s.Iv.Empty() {
			return nil, fmt.Errorf("intervalmap: snapshot span %d is empty", i)
		}
		if len(s.IDs) == 0 {
			return nil, fmt.Errorf("intervalmap: snapshot span %d has no ids", i)
		}
		if i > 0 && s.Iv.Lo <= lastHi {
			return nil, fmt.Errorf("intervalmap: snapshot spans out of order at %d", i)
		}
		lastHi = s.Iv.Hi
		ids := cloneIDs(s.IDs)
		sort.Ints(ids)
		nn := &node{iv: s.Iv, ids: ids}
		if tail == nil {
			r.head = nn
		} else {
			tail.next = nn
		}
		tail = nn
		r.nodes++
	}
	return r, nil
}

// CheckInvariants verifies the Figure-3 constraints: ascending order,
// non-overlapping intervals, no empty intervals, no empty or unsorted id
// arrays. It returns the first violation found.
func (r *Row) CheckInvariants() error {
	count := 0
	var prev *node
	for n := r.head; n != nil; n = n.next {
		count++
		if n.iv.Empty() {
			return fmt.Errorf("intervalmap: empty interval %v in list", n.iv)
		}
		if len(n.ids) == 0 {
			return fmt.Errorf("intervalmap: interval %v carries no placements", n.iv)
		}
		if !sort.IntsAreSorted(n.ids) {
			return fmt.Errorf("intervalmap: interval %v has unsorted ids %v", n.iv, n.ids)
		}
		for i := 1; i < len(n.ids); i++ {
			if n.ids[i] == n.ids[i-1] {
				return fmt.Errorf("intervalmap: interval %v has duplicate id %d", n.iv, n.ids[i])
			}
		}
		if prev != nil && prev.iv.Hi >= n.iv.Lo {
			return fmt.Errorf("intervalmap: intervals %v and %v out of order or overlapping",
				prev.iv, n.iv)
		}
		prev = n
	}
	if count != r.nodes {
		return fmt.Errorf("intervalmap: node count %d != recorded %d", count, r.nodes)
	}
	return nil
}

// String renders the row for debugging: "[1,5]{0,2} [8,9]{1}".
func (r *Row) String() string {
	var b strings.Builder
	for n := r.head; n != nil; n = n.next {
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%v%v", n.iv, n.ids)
	}
	if b.Len() == 0 {
		return "(empty)"
	}
	return b.String()
}

func cloneIDs(ids []int) []int {
	out := make([]int, len(ids))
	copy(out, ids)
	return out
}
