package geom

import (
	"math"
	"math/rand"
	"strconv"
	"testing"
	"testing/quick"
)

func TestRectBasics(t *testing.T) {
	r := NewRect(2, 3, 10, 5)
	if got := r.W(); got != 10 {
		t.Errorf("W() = %d, want 10", got)
	}
	if got := r.H(); got != 5 {
		t.Errorf("H() = %d, want 5", got)
	}
	if got := r.Area(); got != 50 {
		t.Errorf("Area() = %d, want 50", got)
	}
	if r.Empty() {
		t.Error("non-degenerate rect reported Empty")
	}
	if got := r.Center(); got != (Point{7, 5}) {
		t.Errorf("Center() = %v, want (7,5)", got)
	}
}

func TestRectEmpty(t *testing.T) {
	cases := []Rect{
		{0, 0, 0, 0},
		{5, 5, 5, 10},  // zero width
		{5, 5, 10, 5},  // zero height
		{5, 5, 4, 10},  // negative width
		{5, 5, 10, -1}, // negative height
	}
	for _, r := range cases {
		if !r.Empty() {
			t.Errorf("%v should be empty", r)
		}
		if r.Area() != 0 {
			t.Errorf("%v empty rect area = %d, want 0", r, r.Area())
		}
		// W and H are per-axis extents: an empty rect has zero extent in at
		// least one axis, and never a negative extent in either.
		if r.W() < 0 || r.H() < 0 {
			t.Errorf("%v empty rect W/H = %d/%d, want non-negative", r, r.W(), r.H())
		}
		if r.W() != 0 && r.H() != 0 {
			t.Errorf("%v empty rect has positive extent in both axes", r)
		}
	}
}

func TestRectOverlaps(t *testing.T) {
	base := NewRect(0, 0, 10, 10)
	tests := []struct {
		name string
		r    Rect
		want bool
	}{
		{"identical", NewRect(0, 0, 10, 10), true},
		{"contained", NewRect(2, 2, 3, 3), true},
		{"corner overlap", NewRect(8, 8, 5, 5), true},
		{"abut right edge", NewRect(10, 0, 5, 10), false},
		{"abut top edge", NewRect(0, 10, 10, 5), false},
		{"disjoint", NewRect(20, 20, 5, 5), false},
		{"empty inside", Rect{5, 5, 5, 5}, false},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := base.Overlaps(tc.r); got != tc.want {
				t.Errorf("Overlaps(%v) = %v, want %v", tc.r, got, tc.want)
			}
			if got := tc.r.Overlaps(base); got != tc.want {
				t.Errorf("Overlaps is not symmetric for %v", tc.r)
			}
		})
	}
}

func TestRectIntersect(t *testing.T) {
	a := NewRect(0, 0, 10, 10)
	b := NewRect(5, 5, 10, 10)
	got := a.Intersect(b)
	want := Rect{5, 5, 10, 10}
	if got != want {
		t.Errorf("Intersect = %v, want %v", got, want)
	}
	c := NewRect(20, 20, 2, 2)
	if !a.Intersect(c).Empty() {
		t.Errorf("disjoint Intersect = %v, want empty", a.Intersect(c))
	}
}

func TestRectUnionWithEmpty(t *testing.T) {
	a := NewRect(1, 1, 4, 4)
	empty := Rect{}
	if got := a.Union(empty); got != a {
		t.Errorf("Union with empty = %v, want %v", got, a)
	}
	if got := empty.Union(a); got != a {
		t.Errorf("empty Union a = %v, want %v", got, a)
	}
}

func TestRectContains(t *testing.T) {
	outer := NewRect(0, 0, 10, 10)
	if !outer.Contains(NewRect(1, 1, 5, 5)) {
		t.Error("Contains inner failed")
	}
	if !outer.Contains(outer) {
		t.Error("Contains self failed")
	}
	if outer.Contains(NewRect(5, 5, 10, 10)) {
		t.Error("Contains overflowing rect should be false")
	}
	if !outer.Contains(Rect{3, 3, 3, 3}) {
		t.Error("Contains empty rect should be true")
	}
}

func TestRectContainsPoint(t *testing.T) {
	r := NewRect(0, 0, 10, 10)
	if !r.ContainsPoint(Point{0, 0}) {
		t.Error("bottom-left corner should be inside (half-open)")
	}
	if r.ContainsPoint(Point{10, 5}) {
		t.Error("right edge should be outside (half-open)")
	}
	if r.ContainsPoint(Point{5, 10}) {
		t.Error("top edge should be outside (half-open)")
	}
}

func TestRectTranslate(t *testing.T) {
	r := NewRect(1, 2, 3, 4)
	got := r.Translate(10, -2)
	want := NewRect(11, 0, 3, 4)
	if got != want {
		t.Errorf("Translate = %v, want %v", got, want)
	}
}

func TestBoundingBox(t *testing.T) {
	rects := []Rect{
		NewRect(0, 0, 2, 2),
		NewRect(5, 5, 2, 2),
		NewRect(-3, 1, 1, 1),
	}
	got := BoundingBox(rects)
	want := Rect{-3, 0, 7, 7}
	if got != want {
		t.Errorf("BoundingBox = %v, want %v", got, want)
	}
	if !BoundingBox(nil).Empty() {
		t.Error("BoundingBox(nil) should be empty")
	}
}

func TestHPWL(t *testing.T) {
	tests := []struct {
		name string
		pts  []Point
		want int
	}{
		{"empty", nil, 0},
		{"single", []Point{{3, 4}}, 0},
		{"pair", []Point{{0, 0}, {3, 4}}, 7},
		{"triple", []Point{{0, 0}, {10, 0}, {5, 5}}, 15},
		{"colinear", []Point{{0, 0}, {5, 0}, {9, 0}}, 9},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := HPWL(tc.pts); got != tc.want {
				t.Errorf("HPWL = %d, want %d", got, tc.want)
			}
		})
	}
}

func TestHPWLPermutationInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 100; trial++ {
		n := 2 + rng.Intn(8)
		pts := make([]Point, n)
		for i := range pts {
			pts[i] = Point{rng.Intn(100), rng.Intn(100)}
		}
		want := HPWL(pts)
		rng.Shuffle(n, func(i, j int) { pts[i], pts[j] = pts[j], pts[i] })
		if got := HPWL(pts); got != want {
			t.Fatalf("HPWL changed under permutation: %d vs %d", got, want)
		}
	}
}

func TestManhattanDist(t *testing.T) {
	if got := (Point{0, 0}).ManhattanDist(Point{3, -4}); got != 7 {
		t.Errorf("ManhattanDist = %d, want 7", got)
	}
	if got := (Point{5, 5}).ManhattanDist(Point{5, 5}); got != 0 {
		t.Errorf("self distance = %d, want 0", got)
	}
}

func TestIntervalBasics(t *testing.T) {
	iv := NewInterval(3, 7)
	if iv.Empty() {
		t.Error("non-empty interval reported Empty")
	}
	if got := iv.Len(); got != 5 {
		t.Errorf("Len = %d, want 5", got)
	}
	for v := 3; v <= 7; v++ {
		if !iv.Contains(v) {
			t.Errorf("Contains(%d) = false, want true", v)
		}
	}
	if iv.Contains(2) || iv.Contains(8) {
		t.Error("Contains out-of-range value")
	}
}

func TestIntervalEmpty(t *testing.T) {
	iv := NewInterval(5, 4)
	if !iv.Empty() {
		t.Error("inverted interval should be empty")
	}
	if iv.Len() != 0 {
		t.Errorf("empty Len = %d, want 0", iv.Len())
	}
	if iv.Contains(5) {
		t.Error("empty interval Contains should be false")
	}
	full := NewInterval(0, 10)
	if full.Overlaps(iv) || iv.Overlaps(full) {
		t.Error("overlap with empty interval should be false")
	}
	if !full.ContainsInterval(iv) {
		t.Error("every interval contains the empty interval")
	}
}

func TestIntervalOverlapAndIntersect(t *testing.T) {
	a := NewInterval(0, 10)
	tests := []struct {
		b       Interval
		overlap bool
		common  Interval
	}{
		{NewInterval(5, 15), true, NewInterval(5, 10)},
		{NewInterval(10, 20), true, NewInterval(10, 10)}, // inclusive endpoint
		{NewInterval(11, 20), false, Interval{}},
		{NewInterval(-5, -1), false, Interval{}},
		{NewInterval(2, 3), true, NewInterval(2, 3)},
	}
	for _, tc := range tests {
		if got := a.Overlaps(tc.b); got != tc.overlap {
			t.Errorf("Overlaps(%v) = %v, want %v", tc.b, got, tc.overlap)
		}
		if tc.overlap {
			if got := a.Intersect(tc.b); got != tc.common {
				t.Errorf("Intersect(%v) = %v, want %v", tc.b, got, tc.common)
			}
			if got := a.OverlapLen(tc.b); got != tc.common.Len() {
				t.Errorf("OverlapLen(%v) = %d, want %d", tc.b, got, tc.common.Len())
			}
		} else if got := a.OverlapLen(tc.b); got != 0 {
			t.Errorf("OverlapLen(%v) = %d, want 0", tc.b, got)
		}
	}
}

func TestIntervalClamp(t *testing.T) {
	iv := NewInterval(3, 7)
	cases := [][2]int{{0, 3}, {3, 3}, {5, 5}, {7, 7}, {100, 7}}
	for _, c := range cases {
		if got := iv.Clamp(c[0]); got != c[1] {
			t.Errorf("Clamp(%d) = %d, want %d", c[0], got, c[1])
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Clamp on empty interval should panic")
		}
	}()
	NewInterval(5, 4).Clamp(5)
}

func TestIntervalSubtract(t *testing.T) {
	iv := NewInterval(0, 10)
	tests := []struct {
		name        string
		sub         Interval
		left, right Interval
	}{
		{"middle", NewInterval(4, 6), NewInterval(0, 3), NewInterval(7, 10)},
		{"prefix", NewInterval(0, 4), NewInterval(0, -1), NewInterval(5, 10)},
		{"suffix", NewInterval(6, 10), NewInterval(0, 5), NewInterval(11, 10)},
		{"all", NewInterval(0, 10), NewInterval(0, -1), NewInterval(11, 10)},
		{"disjoint", NewInterval(20, 30), NewInterval(0, 10), Interval{0, -1}},
		{"super", NewInterval(-5, 15), NewInterval(0, -6), NewInterval(16, 10)},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			got := iv.Subtract(tc.sub)
			if got.Left.Empty() != tc.left.Empty() || (!got.Left.Empty() && got.Left != tc.left) {
				t.Errorf("Left = %v, want %v", got.Left, tc.left)
			}
			if got.Right.Empty() != tc.right.Empty() || (!got.Right.Empty() && got.Right != tc.right) {
				t.Errorf("Right = %v, want %v", got.Right, tc.right)
			}
		})
	}
}

// TestIntervalSubtractProperty checks that subtraction partitions the
// original interval: every point is in exactly one of Left, Right, or the
// subtracted interval.
func TestIntervalSubtractProperty(t *testing.T) {
	f := func(aLo, aLen, bLo, bLen uint8) bool {
		a := NewInterval(int(aLo), int(aLo)+int(aLen%40))
		b := NewInterval(int(bLo), int(bLo)+int(bLen%40))
		res := a.Subtract(b)
		for v := a.Lo; v <= a.Hi; v++ {
			inLeft := res.Left.Contains(v)
			inRight := res.Right.Contains(v)
			inB := b.Contains(v)
			count := 0
			if inLeft {
				count++
			}
			if inRight {
				count++
			}
			if inB {
				count++
			}
			if count != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestOverlapsEquivalentToNonEmptyIntersect cross-checks the two rect
// predicates against each other over random rectangles.
func TestOverlapsEquivalentToNonEmptyIntersect(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 1000; i++ {
		a := NewRect(rng.Intn(20)-10, rng.Intn(20)-10, rng.Intn(10), rng.Intn(10))
		b := NewRect(rng.Intn(20)-10, rng.Intn(20)-10, rng.Intn(10), rng.Intn(10))
		if a.Overlaps(b) != !a.Intersect(b).Empty() {
			t.Fatalf("Overlaps/Intersect disagree for %v and %v", a, b)
		}
	}
}

func TestIntervalLenFloat(t *testing.T) {
	if got := NewInterval(3, 7).LenFloat(); got != 5 {
		t.Errorf("LenFloat = %g, want 5", got)
	}
	if got := NewInterval(5, 4).LenFloat(); got != 0 {
		t.Errorf("empty LenFloat = %g, want 0", got)
	}
	// The overflow case Len cannot represent: [0, MaxInt] has MaxInt+1
	// integers, 2^63 where int has 64 bits and 2^31 where it has 32; Len
	// wraps negative, LenFloat must stay exact.
	wide := NewInterval(0, math.MaxInt)
	if wide.Len() >= 0 {
		t.Fatalf("test premise broken: Len = %d did not overflow", wide.Len())
	}
	if got, want := wide.LenFloat(), math.Exp2(strconv.IntSize-1); got != want {
		t.Errorf("wide LenFloat = %g, want %g", got, want)
	}
}

func TestIntervalRand(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	iv := NewInterval(10, 14)
	seen := map[int]bool{}
	for k := 0; k < 200; k++ {
		v := iv.Rand(rng)
		if !iv.Contains(v) {
			t.Fatalf("Rand drew %d outside %v", v, iv)
		}
		seen[v] = true
	}
	if len(seen) != 5 {
		t.Errorf("200 draws hit %d of 5 values", len(seen))
	}
	// Point interval.
	if v := NewInterval(9, 9).Rand(rng); v != 9 {
		t.Errorf("point Rand = %d, want 9", v)
	}
	// Overflowing span: lo+Intn(hi-lo+1) would panic; Rand must draw an
	// in-bounds value.
	wide := NewInterval(0, math.MaxInt)
	for k := 0; k < 100; k++ {
		if v := wide.Rand(rng); v < 0 {
			t.Fatalf("wide Rand drew %d outside %v", v, wide)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Rand on an empty interval did not panic")
		}
	}()
	NewInterval(5, 4).Rand(rng)
}
