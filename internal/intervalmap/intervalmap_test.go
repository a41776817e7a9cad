package intervalmap

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"mps/internal/geom"
)

func iv(lo, hi int) geom.Interval { return geom.NewInterval(lo, hi) }

// span is one interval Sweep emits, with the ids of the slots its mask
// holds, ascending.
type span struct {
	iv  geom.Interval
	ids []int
}

// sweep returns the row the registrations define, as Sweep emits it:
// slot k is registered on [lo[k], hi[k]] under id ids[k].
func sweep(lo, hi, ids []int) []span {
	var sw Sweeper
	var row []span
	sw.Sweep(lo, hi, func(l, h int, mask []uint64) {
		sp := span{iv: iv(l, h)}
		for k := range lo {
			if mask[k/64]>>(k%64)&1 == 1 {
				sp.ids = append(sp.ids, ids[k])
			}
		}
		row = append(row, sp)
	})
	return row
}

// build returns the row registering id k on regs[k] for every k. An empty
// interval leaves its id unregistered, which is how core's box table
// records a deleted placement.
func build(regs ...geom.Interval) []span {
	lo, hi, ids := make([]int, len(regs)), make([]int, len(regs)), make([]int, len(regs))
	for k, r := range regs {
		lo[k], hi[k], ids[k] = r.Lo, r.Hi, k
	}
	return sweep(lo, hi, ids)
}

// lookup returns the ids of the row's interval holding v, nil when none
// does.
func lookup(row []span, v int) []int {
	for _, sp := range row {
		if sp.iv.Contains(v) {
			return sp.ids
		}
	}
	return nil
}

// checkRow verifies the Figure-3 constraints on a swept row: intervals
// non-empty, ascending and disjoint, each carrying at least one id.
func checkRow(row []span) error {
	for i, sp := range row {
		if sp.iv.Empty() {
			return fmt.Errorf("empty interval %v in row", sp.iv)
		}
		if len(sp.ids) == 0 {
			return fmt.Errorf("interval %v carries no placements", sp.iv)
		}
		if i > 0 && row[i-1].iv.Hi >= sp.iv.Lo {
			return fmt.Errorf("intervals %v and %v out of order or overlapping", row[i-1].iv, sp.iv)
		}
	}
	return nil
}

// render prints a row as "[1,5][0 2] [8,9][1]".
func render(row []span) string {
	parts := make([]string, len(row))
	for i, sp := range row {
		parts[i] = fmt.Sprintf("%v%v", sp.iv, sp.ids)
	}
	return strings.Join(parts, " ")
}

// emptied is a registration core's delete leaves behind.
var emptied = iv(1, 0)

func TestInsertIntoEmptyRow(t *testing.T) {
	r := build(iv(5, 10))
	if got := lookup(r, 7); !reflect.DeepEqual(got, []int{0}) {
		t.Errorf("lookup(7) = %v, want [0]", got)
	}
	if got := lookup(r, 4); got != nil {
		t.Errorf("lookup(4) = %v, want nil", got)
	}
	if got := lookup(r, 11); got != nil {
		t.Errorf("lookup(11) = %v, want nil", got)
	}
	if err := checkRow(r); err != nil {
		t.Error(err)
	}
}

func TestInsertDisjointKeepsAscendingOrder(t *testing.T) {
	r := build(iv(1, 5), iv(20, 30), iv(10, 12))
	if err := checkRow(r); err != nil {
		t.Fatal(err)
	}
	if len(r) != 3 {
		t.Fatalf("got %d spans, want 3: %s", len(r), render(r))
	}
	if r[0].iv != iv(1, 5) || r[1].iv != iv(10, 12) || r[2].iv != iv(20, 30) {
		t.Errorf("spans out of order: %s", render(r))
	}
}

func TestInsertOverlappingSplits(t *testing.T) {
	r := build(iv(0, 10), iv(5, 15))
	if err := checkRow(r); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		v    int
		want []int
	}{
		{0, []int{0}},
		{4, []int{0}},
		{5, []int{0, 1}},
		{10, []int{0, 1}},
		{11, []int{1}},
		{15, []int{1}},
		{16, nil},
	}
	for _, tc := range cases {
		if got := lookup(r, tc.v); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("lookup(%d) = %v, want %v (%s)", tc.v, got, tc.want, render(r))
		}
	}
}

func TestInsertContainedInterval(t *testing.T) {
	r := build(iv(0, 20), iv(8, 12))
	if err := checkRow(r); err != nil {
		t.Fatal(err)
	}
	if got := lookup(r, 10); !reflect.DeepEqual(got, []int{0, 1}) {
		t.Errorf("lookup(10) = %v, want [0 1]", got)
	}
	if got := lookup(r, 7); !reflect.DeepEqual(got, []int{0}) {
		t.Errorf("lookup(7) = %v, want [0]", got)
	}
	if got := lookup(r, 13); !reflect.DeepEqual(got, []int{0}) {
		t.Errorf("lookup(13) = %v, want [0]", got)
	}
}

func TestInsertSpanningGapsAndNodes(t *testing.T) {
	// id 2 spans gap + node + gap + node + trailing gap.
	r := build(iv(0, 3), iv(10, 13), iv(2, 20))
	if err := checkRow(r); err != nil {
		t.Fatal(err)
	}
	checks := []struct {
		v    int
		want []int
	}{
		{0, []int{0}},
		{2, []int{0, 2}},
		{5, []int{2}},
		{10, []int{1, 2}},
		{14, []int{2}},
		{20, []int{2}},
		{21, nil},
	}
	for _, tc := range checks {
		if got := lookup(r, tc.v); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("lookup(%d) = %v, want %v (%s)", tc.v, got, tc.want, render(r))
		}
	}
}

func TestInsertEmptyIntervalNoop(t *testing.T) {
	if r := build(iv(5, 4)); len(r) != 0 {
		t.Errorf("an empty interval should register nothing: %s", render(r))
	}
}

// TestRemoveFullInterval: emptying a row's only registration, as core's
// delete does, leaves an empty row.
func TestRemoveFullInterval(t *testing.T) {
	if r := build(iv(0, 10)); len(r) == 0 {
		t.Fatal("registered row is empty")
	}
	if r := build(emptied); len(r) != 0 {
		t.Errorf("row should be empty after full removal: %s", render(r))
	}
}

func TestRemoveOnlyTargetID(t *testing.T) {
	r := build(emptied, iv(0, 10))
	if err := checkRow(r); err != nil {
		t.Fatal(err)
	}
	if got := lookup(r, 5); !reflect.DeepEqual(got, []int{1}) {
		t.Errorf("lookup(5) = %v, want [1]", got)
	}
}

// TestRemoveAll: an emptied registration leaves its id nowhere in the row,
// and every other id exactly where it was registered.
func TestRemoveAll(t *testing.T) {
	r := build(emptied, iv(3, 12), iv(10, 15))
	if err := checkRow(r); err != nil {
		t.Fatal(err)
	}
	for v := -1; v <= 16; v++ {
		got := lookup(r, v)
		if slices.Contains(got, 0) {
			t.Fatalf("id 0 still present at %d after removal", v)
		}
		var want []int
		if v >= 3 && v <= 12 {
			want = append(want, 1)
		}
		if v >= 10 && v <= 15 {
			want = append(want, 2)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("lookup(%d) = %v, want %v", v, got, want)
		}
	}
}

// TestRemoveCoalesces: a row swept after emptying the registration that
// split it is one interval again, not three.
func TestRemoveCoalesces(t *testing.T) {
	if r := build(iv(0, 20), iv(5, 10)); len(r) != 3 {
		t.Fatalf("%d intervals, want 3 before removal: %s", len(r), render(r))
	}
	r := build(iv(0, 20), emptied)
	if err := checkRow(r); err != nil {
		t.Fatal(err)
	}
	if len(r) != 1 {
		t.Errorf("%d intervals, want 1 after coalesce: %s", len(r), render(r))
	}
}

// TestRelabelMonotone: sweeping the same registrations under another
// strictly increasing id map, as core.Renumber's packed box table does,
// keeps every interval in place and every id array ascending.
func TestRelabelMonotone(t *testing.T) {
	lo, hi := []int{0, 5, 20}, []int{9, 14, 24}
	for _, tc := range []struct {
		ids  []int
		want string
	}{
		{[]int{3, 7, 9}, "[0,4][3] [5,9][3 7] [10,14][7] [20,24][9]"},
		{[]int{0, 1, 2}, "[0,4][0] [5,9][0 1] [10,14][1] [20,24][2]"},
	} {
		r := sweep(lo, hi, tc.ids)
		if err := checkRow(r); err != nil {
			t.Fatal(err)
		}
		if got := render(r); got != tc.want {
			t.Errorf("ids %v: row %s, want %s", tc.ids, got, tc.want)
		}
	}
}

// definition is what a row means at one value: the ids registered on an
// interval holding v, ascending (nil when none).
func definition(lo, hi, ids []int, v int) []int {
	var out []int
	for k := range lo {
		if lo[k] <= v && v <= hi[k] {
			out = append(out, ids[k])
		}
	}
	return out
}

// checkDefinition sweeps the registrations and compares the emitted row
// with the per-value definition, without relying on how the sweep finds
// its breakpoints: intervals are ascending, disjoint and non-empty, every
// interval carries the definition's ids at both ends, no registration
// starts or stops strictly inside an interval (so the set is constant on
// it), intervals that touch carry different ids (so they are maximal),
// and the row agrees with the definition on every value that starts, ends
// or borders a registration or an interval, at both ends of the int
// range, and on every value in [dense0, dense1].
func checkDefinition(t *testing.T, lo, hi, ids []int, dense0, dense1 int) {
	t.Helper()
	r := sweep(lo, hi, ids)
	if err := checkRow(r); err != nil {
		t.Fatalf("%v\nrow %s", err, render(r))
	}
	probes := []int{math.MinInt, math.MaxInt, 0}
	near := func(v int) {
		probes = append(probes, v)
		if v > math.MinInt {
			probes = append(probes, v-1)
		}
		if v < math.MaxInt {
			probes = append(probes, v+1)
		}
	}
	for i, sp := range r {
		for _, v := range []int{sp.iv.Lo, sp.iv.Hi} {
			if want := definition(lo, hi, ids, v); !reflect.DeepEqual(sp.ids, want) {
				t.Fatalf("interval %v carries %v, definition at %d is %v\nrow %s", sp.iv, sp.ids, v, want, render(r))
			}
		}
		for k := range lo {
			if lo[k] > hi[k] {
				continue
			}
			if lo[k] > sp.iv.Lo && lo[k] <= sp.iv.Hi {
				t.Fatalf("registration %d [%d,%d] starts inside interval %v\nrow %s", k, lo[k], hi[k], sp.iv, render(r))
			}
			if hi[k] >= sp.iv.Lo && hi[k] < sp.iv.Hi {
				t.Fatalf("registration %d [%d,%d] ends inside interval %v\nrow %s", k, lo[k], hi[k], sp.iv, render(r))
			}
		}
		if i > 0 && r[i-1].iv.Hi+1 == sp.iv.Lo && reflect.DeepEqual(r[i-1].ids, sp.ids) {
			t.Fatalf("touching intervals %v and %v carry the same ids %v\nrow %s", r[i-1].iv, sp.iv, sp.ids, render(r))
		}
		near(sp.iv.Lo)
		near(sp.iv.Hi)
	}
	for k := range lo {
		near(lo[k])
		near(hi[k])
	}
	for v := dense0; v <= dense1; v++ {
		probes = append(probes, v)
	}
	for _, v := range probes {
		if got, want := lookup(r, v), definition(lo, hi, ids, v); !reflect.DeepEqual(got, want) {
			t.Fatalf("lookup(%d) = %v, definition %v\nrow %s", v, got, want, render(r))
		}
	}
}

// TestRandomizedAgainstOracle sweeps rows from random registrations and
// checks each against the per-value definition, on registrations mixing
// negative, single-point, abutting, emptied and int-range-ending
// intervals, with enough slots to need several mask words.
func TestRandomizedAgainstOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	for trial := 0; trial < 200; trial++ {
		slots := 1 + rng.Intn(8)
		if trial%4 == 3 {
			slots = 65 + rng.Intn(140)
		}
		lo, hi, ids := make([]int, slots), make([]int, slots), make([]int, slots)
		next := rng.Intn(3)
		for k := range lo {
			ids[k] = next
			next += 1 + rng.Intn(3)
			l := rng.Intn(64) - 32
			switch rng.Intn(8) {
			case 0: // single point
				lo[k], hi[k] = l, l
			case 1: // abuts the previous registration
				if k > 0 && hi[k-1] < math.MaxInt {
					l = hi[k-1] + 1
				}
				lo[k], hi[k] = l, l+rng.Intn(10)
			case 2: // runs to the top of the int range
				lo[k], hi[k] = l, math.MaxInt
			case 3: // starts at the bottom of the int range
				lo[k], hi[k] = math.MinInt, l
			case 4: // emptied
				lo[k], hi[k] = emptied.Lo, emptied.Hi
			default:
				lo[k], hi[k] = l, l+rng.Intn(24)
			}
		}
		checkDefinition(t, lo, hi, ids, -40, 70)
	}
}

// FuzzSweepDefinition checks rows swept from fuzzed registrations against
// the per-value definition. Each registration is 4 bytes: a kind, a
// signed start, a length and an id gap; kinds add single points, abutting
// starts, intervals ending at math.MaxInt or starting at math.MinInt, and
// emptied registrations to plain ones.
func FuzzSweepDefinition(f *testing.F) {
	f.Add([]byte{0, 5, 3, 0, 1, 250, 0, 1, 2, 10, 4, 0})
	f.Add([]byte{3, 0, 0, 0, 4, 20, 2, 1, 5, 0, 0, 0, 6, 7, 1, 2})
	f.Add(binary.LittleEndian.AppendUint32(nil, 0x01020304))
	f.Fuzz(func(t *testing.T, data []byte) {
		n := min(len(data)/4, 130)
		lo, hi, ids := make([]int, n), make([]int, n), make([]int, n)
		next := 0
		for k := 0; k < n; k++ {
			b := data[4*k : 4*k+4]
			ids[k] = next
			next += 1 + int(b[3]%3)
			l, length := int(int8(b[1])), int(b[2]%32)
			switch b[0] % 6 {
			case 0:
				lo[k], hi[k] = l, l+length
			case 1:
				lo[k], hi[k] = l, l
			case 2:
				if k > 0 && hi[k-1] < math.MaxInt {
					l = hi[k-1] + 1
				}
				lo[k], hi[k] = l, l+length
			case 3:
				lo[k], hi[k] = l, math.MaxInt
			case 4:
				lo[k], hi[k] = math.MinInt, l
			case 5:
				lo[k], hi[k] = emptied.Lo, emptied.Hi
			}
		}
		checkDefinition(t, lo, hi, ids, -140, 170)
	})
}

func BenchmarkSweep(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	lo, hi := make([]int, 800), make([]int, 800)
	for k := range lo {
		lo[k] = rng.Intn(100)
		hi[k] = lo[k] + rng.Intn(30)
	}
	var sw Sweeper
	emit := func(int, int, []uint64) {}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sw.Sweep(lo, hi, emit)
	}
}
