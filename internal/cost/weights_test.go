package cost

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"mps/internal/circuits"
	"mps/internal/geom"
)

// randomLayout builds a layout for a benchmark circuit with random
// designer dimensions and loosely packed random anchors.
func randomLayout(name string, rng *rand.Rand) *Layout {
	c := circuits.MustByName(name)
	n := c.N()
	l := &Layout{
		Circuit:   c,
		X:         make([]int, n),
		Y:         make([]int, n),
		W:         make([]int, n),
		H:         make([]int, n),
		Floorplan: geom.NewRect(0, 0, 4096, 4096),
	}
	for i, b := range c.Blocks {
		l.W[i] = b.WMin + rng.Intn(b.WMax-b.WMin+1)
		l.H[i] = b.HMin + rng.Intn(b.HMax-b.HMin+1)
		l.X[i] = rng.Intn(2048)
		l.Y[i] = rng.Intn(2048)
	}
	return l
}

// TestWeightsDefaultBitIdentical pins the compatibility contract the
// whole refactor hangs on: the default evaluator, the zero vector, the
// explicit balanced vector, and the scalarized term vector all reproduce
// the historical scalar default, written out below, bit for bit on every
// seed circuit.
func TestWeightsDefaultBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, name := range circuits.Names() {
		for trial := 0; trial < 8; trial++ {
			l := randomLayout(name, rng)
			want := 1.0*float64(WireLength(l)) + 0.05*float64(UsedArea(l))
			if got := DefaultWeights.Cost(l); got != want {
				t.Fatalf("%s: DefaultWeights cost %v != historical default %v", name, got, want)
			}
			if got := (Weights{}).Cost(l); got != want {
				t.Fatalf("%s: zero-vector cost %v != historical default %v", name, got, want)
			}
			if got := BalancedWeights.Cost(l); got != want {
				t.Fatalf("%s: balanced cost %v != historical default %v", name, got, want)
			}
			if got := BalancedWeights.Scalarize(Vector(l)); got != want {
				t.Fatalf("%s: scalarized default %v != historical default %v", name, got, want)
			}
		}
	}
}

func TestVectorTerms(t *testing.T) {
	// Blocks 4x4 at (0,0) and (10,0): bbox 14x4, HPWL 10.
	l := twoBlockLayout(0, 0, 10, 0)
	got := Vector(l)
	want := Terms{Wire: 10, Area: 56, Dead: 56 - 32, Aspect: 14 * (14 - 4)}
	if got != want {
		t.Fatalf("Vector = %+v, want %+v", got, want)
	}
	if got.Wire != WireLength(l) || got.Area != UsedArea(l) || got.Dead != DeadSpace(l) {
		t.Fatalf("Vector terms disagree with the scalar helpers: %+v", got)
	}
}

func TestAspectDeviation(t *testing.T) {
	if d := AspectDeviation(7, 7); d != 0 {
		t.Errorf("square deviation = %d, want 0", d)
	}
	if a, b := AspectDeviation(14, 4), AspectDeviation(4, 14); a != b {
		t.Errorf("orientation must not matter: %d vs %d", a, b)
	}
	// 12x4 needs 12*(12-4) = 96 extra units to square up.
	if d := AspectDeviation(12, 4); d != 96 {
		t.Errorf("AspectDeviation(12,4) = %d, want 96", d)
	}
	// More elongated at equal area costs more.
	if AspectDeviation(16, 4) <= AspectDeviation(8, 8) {
		t.Error("elongation must raise the deviation at equal area")
	}
}

func TestWeightsAspectTermCharges(t *testing.T) {
	elongated := twoBlockLayout(0, 0, 20, 0) // bbox 24x4
	squarish := twoBlockLayout(0, 0, 0, 4)   // bbox 4x8
	w := AspectHeavyWeights
	base := Weights{Wire: w.Wire, Area: w.Area}
	if w.Cost(elongated) <= base.Cost(elongated) {
		t.Error("aspect weight must charge an elongated layout")
	}
	gotE := w.Cost(elongated) - base.Cost(elongated)
	gotS := w.Cost(squarish) - base.Cost(squarish)
	if gotE <= gotS {
		t.Errorf("aspect charge must favor the squarer box: elongated %+v vs squarish %+v", gotE, gotS)
	}
}

func TestWeightsValidate(t *testing.T) {
	for _, w := range []Weights{{}, BalancedWeights, AreaHeavyWeights, WireHeavyWeights, AspectHeavyWeights} {
		if err := w.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v, want nil", w, err)
		}
	}
	bad := []struct {
		w       Weights
		mention string
	}{
		{Weights{Wire: -1}, "wire"},
		{Weights{Wire: 1, Area: -0.5}, "area"},
		{Weights{Aspect: math.Inf(1)}, "aspect"},
		{Weights{Wire: math.NaN()}, "wire"},
	}
	for _, tc := range bad {
		err := tc.w.Validate()
		if err == nil {
			t.Errorf("Validate(%+v) accepted", tc.w)
			continue
		}
		if !strings.Contains(err.Error(), tc.mention) || !strings.Contains(err.Error(), "finite and non-negative") {
			t.Errorf("Validate(%+v) = %q, want mention of %q and the constraint", tc.w, err, tc.mention)
		}
	}
}

func TestWeightsKeyAndCanonical(t *testing.T) {
	if got := (Weights{}).Key(); got != "1,0.05,0" {
		t.Errorf("zero-vector key = %q, want the balanced canonical form", got)
	}
	if got, want := (Weights{}).Key(), BalancedWeights.Key(); got != want {
		t.Errorf("zero and balanced keys differ: %q vs %q", got, want)
	}
	if got := WireHeavyWeights.Key(); got != "1,0.01,0" {
		t.Errorf("wire-heavy key = %q", got)
	}
	if !(Weights{}).IsDefault() || !BalancedWeights.IsDefault() {
		t.Error("zero and balanced vectors must both be default")
	}
	if AreaHeavyWeights.IsDefault() {
		t.Error("area-heavy must not be default")
	}
	if got := (Weights{}).Canonical(); got != BalancedWeights {
		t.Errorf("Canonical(zero) = %+v", got)
	}
	if got := WireHeavyWeights.Canonical(); got != WireHeavyWeights {
		t.Errorf("Canonical must keep non-zero vectors: %+v", got)
	}
}

func TestWeightLadder(t *testing.T) {
	l := WeightLadder(6)
	if len(l) != 6 {
		t.Fatalf("ladder length %d, want 6", len(l))
	}
	want := []Weights{AreaHeavyWeights, WireHeavyWeights, AspectHeavyWeights, BalancedWeights,
		AreaHeavyWeights, WireHeavyWeights}
	for i := range l {
		if l[i] != want[i] {
			t.Errorf("rung %d = %+v, want %+v", i, l[i], want[i])
		}
	}
	for i, w := range l {
		if err := w.Validate(); err != nil {
			t.Errorf("rung %d invalid: %v", i, err)
		}
	}
}
