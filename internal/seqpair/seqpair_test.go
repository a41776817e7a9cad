package seqpair

import (
	"math/rand"
	"testing"
	"testing/quick"

	"mps/internal/circuits"
	"mps/internal/geom"
)

func midDims(t *testing.T, name string) ([]int, []int) {
	t.Helper()
	c := circuits.MustByName(name)
	ws := make([]int, c.N())
	hs := make([]int, c.N())
	for i, b := range c.Blocks {
		ws[i] = (b.WMin + b.WMax) / 2
		hs[i] = (b.HMin + b.HMax) / 2
	}
	return ws, hs
}

func assertLegal(t *testing.T, x, y, ws, hs []int, gap int) {
	t.Helper()
	for i := range ws {
		ri := geom.NewRect(x[i], y[i], ws[i], hs[i])
		for j := i + 1; j < len(ws); j++ {
			rj := geom.NewRect(x[j], y[j], ws[j], hs[j])
			if ri.Overlaps(rj) {
				t.Fatalf("blocks %d and %d overlap: %v vs %v", i, j, ri, rj)
			}
		}
		if x[i] < 0 || y[i] < 0 {
			t.Fatalf("block %d packed at negative position (%d,%d)", i, x[i], y[i])
		}
	}
	_ = gap
}

func TestIdentityPairIsARow(t *testing.T) {
	sp := New(3)
	ws := []int{10, 20, 5}
	hs := []int{4, 4, 4}
	x, y, err := sp.Positions(ws, hs, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Identity pair: every earlier block is left of every later one.
	want := []int{0, 10, 30}
	for i := range want {
		if x[i] != want[i] || y[i] != 0 {
			t.Errorf("block %d at (%d,%d), want (%d,0)", i, x[i], y[i], want[i])
		}
	}
}

func TestReversedPlusIsAStack(t *testing.T) {
	// Plus reversed relative to Minus: every earlier Minus block is below.
	sp := SeqPair{Plus: []int{2, 1, 0}, Minus: []int{0, 1, 2}}
	ws := []int{10, 10, 10}
	hs := []int{5, 7, 3}
	x, y, err := sp.Positions(ws, hs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if x[0] != 0 || x[1] != 0 || x[2] != 0 {
		t.Errorf("stack should share x=0, got %v", x)
	}
	if y[0] != 0 || y[1] != 5 || y[2] != 12 {
		t.Errorf("stack ys = %v, want [0 5 12]", y)
	}
}

func TestPositionsGap(t *testing.T) {
	sp := New(2)
	x, _, err := sp.Positions([]int{10, 10}, []int{5, 5}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if x[1] != 13 {
		t.Errorf("x[1] = %d, want 13 (10 + gap 3)", x[1])
	}
}

// TestPositionsAlwaysLegal is the core sequence-pair guarantee, checked by
// property over random pairs and dimensions.
func TestPositionsAlwaysLegal(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(10)
		sp := Random(n, rng)
		ws := make([]int, n)
		hs := make([]int, n)
		for i := range ws {
			ws[i] = 1 + rng.Intn(30)
			hs[i] = 1 + rng.Intn(30)
		}
		x, y, err := sp.Positions(ws, hs, rng.Intn(3))
		if err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			ri := geom.NewRect(x[i], y[i], ws[i], hs[i])
			for j := i + 1; j < n; j++ {
				if ri.Overlaps(geom.NewRect(x[j], y[j], ws[j], hs[j])) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestValidateRejectsBadPairs(t *testing.T) {
	bad := []SeqPair{
		{Plus: []int{0, 1}, Minus: []int{0}},     // length mismatch
		{Plus: []int{0, 0}, Minus: []int{0, 1}},  // duplicate
		{Plus: []int{0, 2}, Minus: []int{0, 1}},  // out of range
		{Plus: []int{0, -1}, Minus: []int{0, 1}}, // negative
	}
	for i, sp := range bad {
		if err := sp.Validate(); err == nil {
			t.Errorf("case %d: invalid pair accepted", i)
		}
	}
	if _, _, err := New(2).Positions([]int{1}, []int{1, 1}, 0); err == nil {
		t.Error("short dims accepted")
	}
}

func TestBackupPlace(t *testing.T) {
	c := circuits.MustByName("circ06")
	bk := NewBackup(c)
	ws, hs := midDims(t, "circ06")
	x, y, err := bk.Place(ws, hs)
	if err != nil {
		t.Fatal(err)
	}
	assertLegal(t, x, y, ws, hs, bk.Gap)
	// Deterministic.
	x2, y2, err := bk.Place(ws, hs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if x[i] != x2[i] || y[i] != y2[i] {
			t.Fatal("backup not deterministic")
		}
	}
}
