package intervalmap

import (
	"encoding/binary"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"mps/internal/geom"
)

func iv(lo, hi int) geom.Interval { return geom.NewInterval(lo, hi) }

// build returns the row registering id k on regs[k] for every k. An empty
// interval leaves its id unregistered, which is how core's box table
// records a deleted placement.
func build(regs ...geom.Interval) *Row {
	lo, hi, ids := make([]int, len(regs)), make([]int, len(regs)), make([]int, len(regs))
	for k, r := range regs {
		lo[k], hi[k], ids[k] = r.Lo, r.Hi, k
	}
	var sw Sweeper
	return sw.Build(lo, hi, ids)
}

// emptied is a registration core's delete leaves behind.
var emptied = iv(1, 0)

func TestInsertIntoEmptyRow(t *testing.T) {
	r := build(iv(5, 10))
	if got := r.Lookup(7); !reflect.DeepEqual(got, []int{0}) {
		t.Errorf("Lookup(7) = %v, want [0]", got)
	}
	if got := r.Lookup(4); got != nil {
		t.Errorf("Lookup(4) = %v, want nil", got)
	}
	if got := r.Lookup(11); got != nil {
		t.Errorf("Lookup(11) = %v, want nil", got)
	}
	if err := r.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestInsertDisjointKeepsAscendingOrder(t *testing.T) {
	r := build(iv(1, 5), iv(20, 30), iv(10, 12))
	if err := r.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	spans := r.Snapshot()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3: %v", len(spans), r.String())
	}
	if spans[0].Iv != iv(1, 5) || spans[1].Iv != iv(10, 12) || spans[2].Iv != iv(20, 30) {
		t.Errorf("spans out of order: %v", r.String())
	}
}

func TestInsertOverlappingSplits(t *testing.T) {
	r := build(iv(0, 10), iv(5, 15))
	if err := r.CheckInvariants(); err != nil {
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
		if got := r.Lookup(tc.v); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("Lookup(%d) = %v, want %v (%s)", tc.v, got, tc.want, r.String())
		}
	}
}

func TestInsertContainedInterval(t *testing.T) {
	r := build(iv(0, 20), iv(8, 12))
	if err := r.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if got := r.Lookup(10); !reflect.DeepEqual(got, []int{0, 1}) {
		t.Errorf("Lookup(10) = %v, want [0 1]", got)
	}
	if got := r.Lookup(7); !reflect.DeepEqual(got, []int{0}) {
		t.Errorf("Lookup(7) = %v, want [0]", got)
	}
	if got := r.Lookup(13); !reflect.DeepEqual(got, []int{0}) {
		t.Errorf("Lookup(13) = %v, want [0]", got)
	}
}

func TestInsertSpanningGapsAndNodes(t *testing.T) {
	// id 2 spans gap + node + gap + node + trailing gap.
	r := build(iv(0, 3), iv(10, 13), iv(2, 20))
	if err := r.CheckInvariants(); err != nil {
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
		if got := r.Lookup(tc.v); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("Lookup(%d) = %v, want %v (%s)", tc.v, got, tc.want, r.String())
		}
	}
}

func TestInsertEmptyIntervalNoop(t *testing.T) {
	if r := build(iv(5, 4)); !r.Empty() {
		t.Error("an empty interval should register nothing")
	}
}

// TestRemoveFullInterval: emptying a row's only registration, as core's
// delete does, leaves an empty row.
func TestRemoveFullInterval(t *testing.T) {
	if r := build(iv(0, 10)); r.Empty() {
		t.Fatal("registered row is empty")
	}
	r := build(emptied)
	if !r.Empty() || r.Len() != 0 {
		t.Errorf("row should be empty after full removal: %s", r.String())
	}
	if err := r.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestRemoveOnlyTargetID(t *testing.T) {
	r := build(emptied, iv(0, 10))
	if err := r.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if got := r.Lookup(5); !reflect.DeepEqual(got, []int{1}) {
		t.Errorf("Lookup(5) = %v, want [1]", got)
	}
}

// TestRemoveAll: an emptied registration leaves its id nowhere in the row,
// and every other id exactly where it was registered.
func TestRemoveAll(t *testing.T) {
	r := build(emptied, iv(3, 12), iv(10, 15))
	if err := r.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for v := -1; v <= 16; v++ {
		got := r.Lookup(v)
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
			t.Errorf("Lookup(%d) = %v, want %v", v, got, want)
		}
	}
}

// TestRemoveCoalesces: a row rebuilt after emptying the registration that
// split it is one interval again, not three.
func TestRemoveCoalesces(t *testing.T) {
	if r := build(iv(0, 20), iv(5, 10)); r.Len() != 3 {
		t.Fatalf("Len = %d, want 3 before removal: %s", r.Len(), r.String())
	}
	r := build(iv(0, 20), emptied)
	if err := r.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if r.Len() != 1 {
		t.Errorf("Len = %d, want 1 after coalesce: %s", r.Len(), r.String())
	}
}

// TestRelabelMonotone: building the same registrations under another
// strictly increasing id map, as core.Renumber's packed box table does,
// keeps every interval in place and every id array ascending.
func TestRelabelMonotone(t *testing.T) {
	lo, hi := []int{0, 5, 20}, []int{9, 14, 24}
	var sw Sweeper
	for _, tc := range []struct {
		ids  []int
		want string
	}{
		{[]int{3, 7, 9}, "[0,4][3] [5,9][3 7] [10,14][7] [20,24][9]"},
		{[]int{0, 1, 2}, "[0,4][0] [5,9][0 1] [10,14][1] [20,24][2]"},
	} {
		r := sw.Build(lo, hi, tc.ids)
		if err := r.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		if got := r.String(); got != tc.want {
			t.Errorf("ids %v: row %s, want %s", tc.ids, got, tc.want)
		}
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	r := build(iv(0, 5), iv(3, 9), iv(20, 30))
	spans := r.Snapshot()
	r2, err := FromSnapshot(spans)
	if err != nil {
		t.Fatal(err)
	}
	if err := r2.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for v := -1; v <= 31; v++ {
		a, b := r.Lookup(v), r2.Lookup(v)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("Lookup(%d) differs after round trip: %v vs %v", v, a, b)
		}
	}
}

// TestVisitMatchesSnapshot pins Visit (the allocation-free walk
// core.CheckInvariants uses) to Snapshot's view of the row, order included.
func TestVisitMatchesSnapshot(t *testing.T) {
	r := build(iv(0, 5), iv(3, 9), iv(20, 30))
	var visited []Span
	r.Visit(func(ivl geom.Interval, ids []int) {
		visited = append(visited, Span{Iv: ivl, IDs: append([]int(nil), ids...)})
	})
	if !reflect.DeepEqual(visited, r.Snapshot()) {
		t.Fatalf("Visit saw %v, Snapshot says %v", visited, r.Snapshot())
	}
	var empty Row
	empty.Visit(func(geom.Interval, []int) { t.Fatal("Visit on empty row called fn") })
}

func TestFromSnapshotRejectsBadInput(t *testing.T) {
	bad := [][]Span{
		{{Iv: iv(5, 4), IDs: []int{0}}},                                // empty interval
		{{Iv: iv(0, 5), IDs: nil}},                                     // no ids
		{{Iv: iv(0, 5), IDs: []int{0}}, {Iv: iv(3, 8), IDs: []int{1}}}, // overlap
	}
	for i, spans := range bad {
		if _, err := FromSnapshot(spans); err == nil {
			t.Errorf("case %d: FromSnapshot accepted invalid snapshot", i)
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

// checkDefinition builds the row of the registrations and compares it with
// the per-value definition, without relying on how the sweep finds its
// breakpoints: every interval carries the definition's ids at both ends,
// no registration starts or stops strictly inside an interval (so the set
// is constant on it), intervals that touch carry different ids (so they
// are maximal), and Lookup agrees with the definition on every value that
// starts, ends or borders a registration or an interval, at both ends of
// the int range, and on every value in [dense0, dense1].
func checkDefinition(t *testing.T, lo, hi, ids []int, dense0, dense1 int) {
	t.Helper()
	var sw Sweeper
	r := sw.Build(lo, hi, ids)
	if err := r.CheckInvariants(); err != nil {
		t.Fatalf("%v\nrow %s", err, r.String())
	}
	spans := r.Snapshot()
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
	for i, sp := range spans {
		for _, v := range []int{sp.Iv.Lo, sp.Iv.Hi} {
			if want := definition(lo, hi, ids, v); !reflect.DeepEqual(sp.IDs, want) {
				t.Fatalf("interval %v carries %v, definition at %d is %v\nrow %s", sp.Iv, sp.IDs, v, want, r.String())
			}
		}
		for k := range lo {
			if lo[k] > hi[k] {
				continue
			}
			if lo[k] > sp.Iv.Lo && lo[k] <= sp.Iv.Hi {
				t.Fatalf("registration %d [%d,%d] starts inside interval %v\nrow %s", k, lo[k], hi[k], sp.Iv, r.String())
			}
			if hi[k] >= sp.Iv.Lo && hi[k] < sp.Iv.Hi {
				t.Fatalf("registration %d [%d,%d] ends inside interval %v\nrow %s", k, lo[k], hi[k], sp.Iv, r.String())
			}
		}
		if i > 0 && spans[i-1].Iv.Hi+1 == sp.Iv.Lo && reflect.DeepEqual(spans[i-1].IDs, sp.IDs) {
			t.Fatalf("touching intervals %v and %v carry the same ids %v\nrow %s", spans[i-1].Iv, sp.Iv, sp.IDs, r.String())
		}
		near(sp.Iv.Lo)
		near(sp.Iv.Hi)
	}
	for k := range lo {
		near(lo[k])
		near(hi[k])
	}
	for v := dense0; v <= dense1; v++ {
		probes = append(probes, v)
	}
	for _, v := range probes {
		if got, want := r.Lookup(v), definition(lo, hi, ids, v); !reflect.DeepEqual(got, want) {
			t.Fatalf("Lookup(%d) = %v, definition %v\nrow %s", v, got, want, r.String())
		}
	}
}

// TestRandomizedAgainstOracle builds rows from random registrations and
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

// TestSweepMasksMatchBuild: the masks Sweep hands out (the form
// core.Compile copies) hold exactly the slots Build lists, interval by
// interval.
func TestSweepMasksMatchBuild(t *testing.T) {
	lo := []int{0, 5, -3, 100, 7, math.MinInt, 40}
	hi := []int{9, 14, -3, math.MaxInt, 6, -10, 40}
	ids := []int{0, 1, 2, 3, 4, 5, 6}
	var sw Sweeper
	want := sw.Build(lo, hi, ids).Snapshot()
	var got []Span
	sw.Sweep(lo, hi, func(l, h int, mask []uint64) {
		var slots []int
		for k := range lo {
			if mask[k/64]>>(k%64)&1 == 1 {
				slots = append(slots, k)
			}
		}
		got = append(got, Span{Iv: iv(l, h), IDs: slots})
	})
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Sweep gave %v, Build %v", got, want)
	}
}

// FuzzSweepDefinition checks rows built from fuzzed registrations against
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

func TestStringRendering(t *testing.T) {
	var r Row
	if got := r.String(); got != "(empty)" {
		t.Errorf("empty String = %q", got)
	}
	if got := build(iv(1, 2)).String(); got == "(empty)" || got == "" {
		t.Errorf("String = %q, want rendering", got)
	}
}

func BenchmarkRowBuild(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	lo, hi, ids := make([]int, 800), make([]int, 800), make([]int, 800)
	for k := range lo {
		lo[k] = rng.Intn(100)
		hi[k] = lo[k] + rng.Intn(30)
		ids[k] = k
	}
	var sw Sweeper
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sw.Build(lo, hi, ids)
	}
}

func BenchmarkRowLookup(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	lo, hi, ids := make([]int, 200), make([]int, 200), make([]int, 200)
	for k := range lo {
		lo[k] = rng.Intn(2000)
		hi[k] = lo[k] + rng.Intn(50)
		ids[k] = k
	}
	var sw Sweeper
	r := sw.Build(lo, hi, ids)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Lookup(i % 2000)
	}
}
