// Package intervalmap implements the per-block, per-dimension row structure
// of the paper's Figure 3: an ascending, non-overlapping linked list of
// integer intervals, each carrying the indices of the placements valid on
// that interval.
//
// A multi-placement structure holds 2N rows (one width row and one height
// row per block). Feeding a dimension value to a row walks the list to the
// covering interval and yields that interval's placement-index array — the
// W_i / H_i functions of paper eq. 3.
package intervalmap

import (
	"fmt"
	"math/bits"
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

// Insert registers placement id as valid on the inclusive interval iv,
// splitting existing interval objects as needed to keep the list ascending
// and non-overlapping (the paper's Store Placement routine).
// Inserting an empty interval is a no-op.
func (r *Row) Insert(id int, iv geom.Interval) {
	if iv.Empty() {
		return
	}
	lo := iv.Lo
	prev := (*node)(nil)
	cur := r.head
	for lo <= iv.Hi {
		// Skip nodes entirely before lo.
		for cur != nil && cur.iv.Hi < lo {
			prev, cur = cur, cur.next
		}
		if cur == nil || cur.iv.Lo > iv.Hi {
			// Gap covers the rest of [lo, iv.Hi]: one fresh node.
			nn := &node{iv: geom.NewInterval(lo, iv.Hi), ids: []int{id}, next: cur}
			r.link(prev, nn)
			r.nodes++
			return
		}
		if lo < cur.iv.Lo {
			// Gap before cur: fill it, then continue into cur.
			gapHi := min(iv.Hi, cur.iv.Lo-1)
			nn := &node{iv: geom.NewInterval(lo, gapHi), ids: []int{id}, next: cur}
			r.link(prev, nn)
			r.nodes++
			prev = nn
			lo = gapHi + 1
			continue
		}
		// lo is inside cur. Split off the uncovered prefix of cur.
		if cur.iv.Lo < lo {
			left := &node{iv: geom.NewInterval(cur.iv.Lo, lo-1), ids: cloneIDs(cur.ids), next: cur}
			r.link(prev, left)
			r.nodes++
			cur.iv.Lo = lo
			prev = left
		}
		// Split off the uncovered suffix of cur.
		if cur.iv.Hi > iv.Hi {
			right := &node{iv: geom.NewInterval(iv.Hi+1, cur.iv.Hi), ids: cloneIDs(cur.ids), next: cur.next}
			cur.next = right
			cur.iv.Hi = iv.Hi
			r.nodes++
		}
		// cur is now fully covered by [lo, iv.Hi]: tag it.
		cur.ids = addID(cur.ids, id)
		lo = cur.iv.Hi + 1
		prev, cur = cur, cur.next
	}
}

// Remove deletes placement id from the given interval range. Interval
// objects left with no placements are unlinked; objects partially covered
// are split so only the covered part loses the id. Removing from an empty
// interval is a no-op.
func (r *Row) Remove(id int, iv geom.Interval) {
	if iv.Empty() {
		return
	}
	prev := (*node)(nil)
	cur := r.head
	for cur != nil && cur.iv.Lo <= iv.Hi {
		if cur.iv.Hi < iv.Lo {
			prev, cur = cur, cur.next
			continue
		}
		if !containsID(cur.ids, id) {
			prev, cur = cur, cur.next
			continue
		}
		// Split off an uncovered prefix.
		if cur.iv.Lo < iv.Lo {
			left := &node{iv: geom.NewInterval(cur.iv.Lo, iv.Lo-1), ids: cloneIDs(cur.ids), next: cur}
			r.link(prev, left)
			r.nodes++
			cur.iv.Lo = iv.Lo
			prev = left
		}
		// Split off an uncovered suffix.
		if cur.iv.Hi > iv.Hi {
			right := &node{iv: geom.NewInterval(iv.Hi+1, cur.iv.Hi), ids: cloneIDs(cur.ids), next: cur.next}
			cur.next = right
			cur.iv.Hi = iv.Hi
			r.nodes++
		}
		cur.ids = dropID(cur.ids, id)
		if len(cur.ids) == 0 {
			r.unlink(prev, cur)
			cur = cur.next // prev unchanged
			if prev == nil {
				cur = r.head
			} else {
				cur = prev.next
			}
			continue
		}
		prev, cur = cur, cur.next
	}
	r.coalesce()
}

// RemoveAll deletes placement id from every interval of the row.
func (r *Row) RemoveAll(id int) {
	prev := (*node)(nil)
	cur := r.head
	for cur != nil {
		if containsID(cur.ids, id) {
			cur.ids = dropID(cur.ids, id)
			if len(cur.ids) == 0 {
				r.unlink(prev, cur)
				if prev == nil {
					cur = r.head
				} else {
					cur = prev.next
				}
				continue
			}
		}
		prev, cur = cur, cur.next
	}
	r.coalesce()
}

// IDsOverlapping returns the distinct placement indices registered anywhere
// on the given interval, in ascending order. Indices must be non-negative.
//
// It dedupes through a bitset over the indices it meets (on the stack for
// indices below 512), so the result is the only allocation.
func (r *Row) IDsOverlapping(iv geom.Interval) []int {
	maxID := -1
	for n := r.head; n != nil && n.iv.Lo <= iv.Hi; n = n.next {
		if n.iv.Overlaps(iv) {
			maxID = max(maxID, n.ids[len(n.ids)-1]) // ids are ascending
		}
	}
	if maxID < 0 {
		return nil
	}
	var stack [8]uint64
	seen := stack[:]
	if words := maxID/64 + 1; words > len(stack) {
		seen = make([]uint64, words)
	}
	count := 0
	for n := r.head; n != nil && n.iv.Lo <= iv.Hi; n = n.next {
		if !n.iv.Overlaps(iv) {
			continue
		}
		for _, id := range n.ids {
			w, bit := id>>6, uint64(1)<<(id&63)
			if seen[w]&bit == 0 {
				seen[w] |= bit
				count++
			}
		}
	}
	out := make([]int, 0, count)
	for w, word := range seen {
		for word != 0 {
			out = append(out, w<<6|bits.TrailingZeros64(word))
			word &= word - 1
		}
	}
	return out
}

// Relabel rewrites every placement index id in the row to newID[id], then
// merges intervals left touching with identical id sets. newID must be
// strictly increasing over the indices the row holds, so each interval's
// id array stays ascending when rewritten in place; core.Renumber uses it
// to pack IDs without removing and re-inserting placements.
func (r *Row) Relabel(newID []int) {
	for n := r.head; n != nil; n = n.next {
		for i, id := range n.ids {
			n.ids[i] = newID[id]
		}
	}
	r.coalesce()
}

// Visit calls fn for every interval of the row in ascending order, passing
// the interval and its placement-id array. The ids slice is shared with the
// row and must not be modified or retained. Unlike Snapshot, Visit allocates
// nothing — it is the walk core.Compile uses to flatten rows.
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

// link inserts nn after prev (or at the head when prev is nil).
func (r *Row) link(prev, nn *node) {
	if prev == nil {
		r.head = nn
	} else {
		prev.next = nn
	}
}

// unlink removes cur, which follows prev (or is the head when prev is nil).
func (r *Row) unlink(prev, cur *node) {
	if prev == nil {
		r.head = cur.next
	} else {
		prev.next = cur.next
	}
	r.nodes--
}

// coalesce merges adjacent intervals that touch and carry identical id sets,
// keeping the list minimal after removals.
func (r *Row) coalesce() {
	for n := r.head; n != nil && n.next != nil; {
		nx := n.next
		if n.iv.Hi+1 == nx.iv.Lo && equalIDs(n.ids, nx.ids) {
			n.iv.Hi = nx.iv.Hi
			n.next = nx.next
			r.nodes--
			continue
		}
		n = nx
	}
}

func cloneIDs(ids []int) []int {
	out := make([]int, len(ids))
	copy(out, ids)
	return out
}

func addID(ids []int, id int) []int {
	i := sort.SearchInts(ids, id)
	if i < len(ids) && ids[i] == id {
		return ids
	}
	ids = append(ids, 0)
	copy(ids[i+1:], ids[i:])
	ids[i] = id
	return ids
}

func dropID(ids []int, id int) []int {
	i := sort.SearchInts(ids, id)
	if i >= len(ids) || ids[i] != id {
		return ids
	}
	return append(ids[:i], ids[i+1:]...)
}

func containsID(ids []int, id int) bool {
	i := sort.SearchInts(ids, id)
	return i < len(ids) && ids[i] == id
}

func equalIDs(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
