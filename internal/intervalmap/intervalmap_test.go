package intervalmap

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"mps/internal/geom"
)

func iv(lo, hi int) geom.Interval { return geom.NewInterval(lo, hi) }

func TestInsertIntoEmptyRow(t *testing.T) {
	var r Row
	r.Insert(0, iv(5, 10))
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
	var r Row
	r.Insert(1, iv(20, 30))
	r.Insert(0, iv(1, 5))
	r.Insert(2, iv(10, 12))
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
	var r Row
	r.Insert(0, iv(0, 10))
	r.Insert(1, iv(5, 15))
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
	var r Row
	r.Insert(0, iv(0, 20))
	r.Insert(1, iv(8, 12))
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
	var r Row
	r.Insert(0, iv(0, 3))
	r.Insert(1, iv(10, 13))
	// id 2 spans gap + node + gap + node + trailing gap.
	r.Insert(2, iv(2, 20))
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
	var r Row
	r.Insert(0, iv(5, 4))
	if !r.Empty() {
		t.Error("inserting empty interval should be a no-op")
	}
}

func TestInsertIdempotent(t *testing.T) {
	var r Row
	r.Insert(0, iv(0, 10))
	r.Insert(0, iv(0, 10))
	if err := r.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if got := r.Lookup(5); !reflect.DeepEqual(got, []int{0}) {
		t.Errorf("Lookup(5) = %v, want [0]", got)
	}
}

func TestRemoveFullInterval(t *testing.T) {
	var r Row
	r.Insert(0, iv(0, 10))
	r.Remove(0, iv(0, 10))
	if !r.Empty() {
		t.Errorf("row should be empty after full removal: %s", r.String())
	}
}

func TestRemovePartialSplits(t *testing.T) {
	var r Row
	r.Insert(0, iv(0, 10))
	r.Remove(0, iv(4, 6))
	if err := r.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if got := r.Lookup(3); !reflect.DeepEqual(got, []int{0}) {
		t.Errorf("Lookup(3) = %v, want [0]", got)
	}
	if got := r.Lookup(5); got != nil {
		t.Errorf("Lookup(5) = %v, want nil", got)
	}
	if got := r.Lookup(7); !reflect.DeepEqual(got, []int{0}) {
		t.Errorf("Lookup(7) = %v, want [0]", got)
	}
}

func TestRemoveOnlyTargetID(t *testing.T) {
	var r Row
	r.Insert(0, iv(0, 10))
	r.Insert(1, iv(0, 10))
	r.Remove(0, iv(0, 10))
	if err := r.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if got := r.Lookup(5); !reflect.DeepEqual(got, []int{1}) {
		t.Errorf("Lookup(5) = %v, want [1]", got)
	}
}

func TestRemoveAll(t *testing.T) {
	var r Row
	r.Insert(0, iv(0, 5))
	r.Insert(0, iv(10, 15))
	r.Insert(1, iv(3, 12))
	r.RemoveAll(0)
	if err := r.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for v := 0; v <= 15; v++ {
		got := r.Lookup(v)
		for _, id := range got {
			if id == 0 {
				t.Fatalf("id 0 still present at %d after RemoveAll", v)
			}
		}
	}
	if got := r.Lookup(5); !reflect.DeepEqual(got, []int{1}) {
		t.Errorf("Lookup(5) = %v, want [1]", got)
	}
}

func TestRemoveCoalesces(t *testing.T) {
	var r Row
	r.Insert(0, iv(0, 20))
	r.Insert(1, iv(5, 10)) // splits into [0,4]{0} [5,10]{0,1} [11,20]{0}
	r.Remove(1, iv(5, 10)) // should merge back into [0,20]{0}
	if err := r.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if r.Len() != 1 {
		t.Errorf("Len = %d, want 1 after coalesce: %s", r.Len(), r.String())
	}
}

func TestIDsOverlapping(t *testing.T) {
	var r Row
	r.Insert(0, iv(0, 5))
	r.Insert(1, iv(4, 10))
	r.Insert(2, iv(20, 25))
	got := r.IDsOverlapping(iv(5, 21))
	if !reflect.DeepEqual(got, []int{0, 1, 2}) {
		t.Errorf("IDsOverlapping = %v, want [0 1 2]", got)
	}
	got = r.IDsOverlapping(iv(11, 19))
	if len(got) != 0 {
		t.Errorf("IDsOverlapping gap = %v, want empty", got)
	}
}

// idsOverlappingReference is the map-and-sort IDsOverlapping the bitset
// version replaced: distinct ids on any interval overlapping iv, ascending.
func idsOverlappingReference(r *Row, iv geom.Interval) []int {
	var out []int
	seen := map[int]bool{}
	for _, sp := range r.Snapshot() {
		if !sp.Iv.Overlaps(iv) {
			continue
		}
		for _, id := range sp.IDs {
			if !seen[id] {
				seen[id] = true
				out = append(out, id)
			}
		}
	}
	sort.Ints(out)
	return out
}

// TestIDsOverlappingMatchesMapReference runs the bitset IDsOverlapping
// against the map-based reference on random rows, with ids both below and
// above the 512 the stack bitset holds.
func TestIDsOverlappingMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 40; trial++ {
		var r Row
		idSpan := 40
		if trial%2 == 1 {
			idSpan = 2000
		}
		type reg struct {
			id int
			iv geom.Interval
		}
		var live []reg
		used := map[int]bool{}
		for step := 0; step < 120; step++ {
			if len(live) > 0 && rng.Intn(4) == 0 {
				k := rng.Intn(len(live))
				r.Remove(live[k].id, live[k].iv)
				delete(used, live[k].id)
				live = append(live[:k], live[k+1:]...)
				continue
			}
			id := rng.Intn(idSpan)
			if used[id] {
				continue
			}
			lo := rng.Intn(200)
			reg := reg{id, iv(lo, lo+rng.Intn(60))}
			r.Insert(reg.id, reg.iv)
			used[id] = true
			live = append(live, reg)
		}
		if err := r.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		for q := 0; q < 60; q++ {
			lo := rng.Intn(260) - 20
			query := iv(lo, lo+rng.Intn(80))
			got := r.IDsOverlapping(query)
			want := idsOverlappingReference(&r, query)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d: IDsOverlapping(%v) = %v, reference %v\nrow %s", trial, query, got, want, r.String())
			}
		}
	}
}

// TestRelabelMonotone: relabeling with a strictly increasing map keeps
// every id array ascending and every interval in place, and coalesces a
// row left with touching intervals of equal id sets.
func TestRelabelMonotone(t *testing.T) {
	var r Row
	r.Insert(3, iv(0, 9))
	r.Insert(7, iv(5, 14))
	r.Insert(9, iv(20, 24))
	newID := make([]int, 10)
	for i := range newID {
		newID[i] = -1
	}
	newID[3], newID[7], newID[9] = 0, 1, 2
	r.Relabel(newID)
	if err := r.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if got, want := r.String(), "[0,4][0] [5,9][0 1] [10,14][1] [20,24][2]"; got != want {
		t.Errorf("relabeled row %s, want %s", got, want)
	}

	split, err := FromSnapshot([]Span{{iv(0, 4), []int{5}}, {iv(5, 9), []int{5}}})
	if err != nil {
		t.Fatal(err)
	}
	split.Relabel([]int{0, 0, 0, 0, 0, 1})
	if got, want := split.String(), "[0,9][1]"; got != want || split.Len() != 1 {
		t.Errorf("relabeled split row %s (%d nodes), want %s", got, split.Len(), want)
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	var r Row
	r.Insert(0, iv(0, 5))
	r.Insert(1, iv(3, 9))
	r.Insert(2, iv(20, 30))
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

// TestVisitMatchesSnapshot pins Visit (the allocation-free walk behind
// core.Compile) to Snapshot's view of the row, order included.
func TestVisitMatchesSnapshot(t *testing.T) {
	var r Row
	r.Insert(0, iv(0, 5))
	r.Insert(1, iv(3, 9))
	r.Insert(2, iv(20, 30))
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

// TestRandomizedAgainstOracle drives a Row with random inserts/removes and
// cross-checks every lookup against a brute-force map oracle.
func TestRandomizedAgainstOracle(t *testing.T) {
	const domain = 64
	rng := rand.New(rand.NewSource(123))
	for trial := 0; trial < 50; trial++ {
		var r Row
		oracle := make(map[int]map[int]bool) // value -> set of ids
		for op := 0; op < 200; op++ {
			id := rng.Intn(8)
			lo := rng.Intn(domain)
			hi := lo + rng.Intn(domain-lo)
			interval := iv(lo, hi)
			if rng.Float64() < 0.65 {
				r.Insert(id, interval)
				for v := lo; v <= hi; v++ {
					if oracle[v] == nil {
						oracle[v] = map[int]bool{}
					}
					oracle[v][id] = true
				}
			} else {
				r.Remove(id, interval)
				for v := lo; v <= hi; v++ {
					delete(oracle[v], id)
				}
			}
		}
		if err := r.CheckInvariants(); err != nil {
			t.Fatalf("trial %d: %v\n%s", trial, err, r.String())
		}
		for v := 0; v < domain; v++ {
			got := r.Lookup(v)
			want := oracle[v]
			if len(got) != len(want) {
				t.Fatalf("trial %d: Lookup(%d) = %v, oracle has %d ids", trial, v, got, len(want))
			}
			for _, id := range got {
				if !want[id] {
					t.Fatalf("trial %d: Lookup(%d) returned stray id %d", trial, v, id)
				}
			}
		}
	}
}

func TestStringRendering(t *testing.T) {
	var r Row
	if got := r.String(); got != "(empty)" {
		t.Errorf("empty String = %q", got)
	}
	r.Insert(3, iv(1, 2))
	if got := r.String(); got == "(empty)" || got == "" {
		t.Errorf("String = %q, want rendering", got)
	}
}

func BenchmarkRowInsert(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var r Row
		for id := 0; id < 100; id++ {
			lo := rng.Intn(1000)
			r.Insert(id, iv(lo, lo+rng.Intn(100)))
		}
	}
}

func BenchmarkRowLookup(b *testing.B) {
	var r Row
	rng := rand.New(rand.NewSource(2))
	for id := 0; id < 200; id++ {
		lo := rng.Intn(2000)
		r.Insert(id, iv(lo, lo+rng.Intn(50)))
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Lookup(i % 2000)
	}
}
