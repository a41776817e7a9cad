package core

import (
	"bytes"
	"io"
	"math"
	"math/rand"
	"strconv"
	"testing"

	"mps/internal/geom"
	"mps/internal/netlist"
	"mps/internal/placement"
)

// wideCircuit hand-builds a circuit whose designer ranges start at 0 and
// span the whole int range. netlist.Validate would reject WMin 0 — but
// NewStructure never validates, so a caller constructing circuits directly
// reaches Coverage with interval lengths whose hi-lo+1 overflows int.
func wideCircuit() *netlist.Circuit {
	return &netlist.Circuit{
		Name: "wide",
		Blocks: []*netlist.Block{
			{Name: "a", WMin: 0, WMax: math.MaxInt, HMin: 0, HMax: math.MaxInt},
		},
	}
}

// TestCoverageWideRangeNoOverflow is the regression test for the interval
// length overflow in Coverage: a range [0, MaxInt] has MaxInt+1 integers,
// which wraps to MinInt in int arithmetic. The pre-fix code divided by
// that negative length, flipping a half-covering placement's fraction to
// roughly -1 and silently corrupting the TargetCoverage stop condition
// (Coverage >= target could never fire). The log2-space rewrite computes
// lengths in float64 and must report ~0.5.
func TestCoverageWideRangeNoOverflow(t *testing.T) {
	c := wideCircuit()
	fp := geom.NewRect(0, 0, math.MaxInt, math.MaxInt)
	s := NewStructure(c, fp)

	half := math.MaxInt/2 - 1
	p := &placement.Placement{
		ID: -1,
		X:  []int{0}, Y: []int{0},
		WLo: []int{0}, WHi: []int{half}, // ~half the width range
		HLo: []int{0}, HHi: []int{math.MaxInt}, // the full height range
	}
	if _, err := storePlacement(s, p); err != nil {
		t.Fatal(err)
	}

	got := s.Coverage()
	if got < 0 {
		t.Fatalf("Coverage = %g, negative — interval length overflowed", got)
	}
	if got < 0.49 || got > 0.51 {
		t.Errorf("Coverage = %g, want ~0.5 for a half-width box", got)
	}

	// The Monte-Carlo estimator shares the wide-range regime: it must
	// sample (Interval.Rand) rather than panic in rand.Intn on the
	// overflowing span, and roughly agree with the exact value.
	mc := s.CoverageMonteCarlo(rand.New(rand.NewSource(2)), 4000)
	if diff := mc - got; diff < -0.05 || diff > 0.05 {
		t.Errorf("CoverageMonteCarlo = %g on the wide-range circuit, exact %g", mc, got)
	}

	// Query and Instantiate scan the placements, so they answer past the
	// compiled index's int32 range instead of panicking in Compile.
	ws, hs := []int{half}, []int{math.MaxInt}
	if q, err := s.Query(ws, hs); err != nil || q.ID != 0 {
		t.Errorf("Query at %v/%v = %v, %v; want placement 0", ws, hs, q, err)
	}
	if res, err := s.Instantiate(ws, hs); err != nil || res.PlacementID != 0 {
		t.Errorf("Instantiate at %v/%v = %+v, %v; want placement 0", ws, hs, res, err)
	}
	ws[0] = half + 1
	if _, err := s.Query(ws, hs); err != ErrUncovered {
		t.Errorf("Query at %v/%v: %v, want ErrUncovered", ws, hs, err)
	}
	if _, err := s.Instantiate(ws, hs); err != ErrUncovered {
		t.Errorf("Instantiate at %v/%v: %v, want ErrUncovered", ws, hs, err)
	}

	// CheckInvariants compiles the rows, so it reports the floorplan Load
	// rejects, with Load's error, rather than panicking. (The gob codec
	// carries the wide values to Load's floorplan check.) The v2 and v3
	// writers refuse the structure with that error before writing a byte,
	// rather than write a file Load reads as corrupt or panic in Compile.
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	_, loadErr := Load(&buf, c)
	if strconv.IntSize == 32 {
		// Where int has 32 bits the floorplan ends at MaxInt32, inside the
		// int32 range: Load accepts it, the invariants hold, and the v3
		// writer's file loads.
		if loadErr != nil {
			t.Fatalf("Load rejected a floorplan inside the int32 range: %v", loadErr)
		}
		if err := s.CheckInvariants(); err != nil {
			t.Errorf("CheckInvariants = %v", err)
		}
		var out bytes.Buffer
		if err := s.SaveBinaryCompiled(&out); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(&out, c); err != nil {
			t.Errorf("Load of the v3 file: %v", err)
		}
		return
	}
	if loadErr == nil {
		t.Fatal("Load accepted a floorplan past the int32 range")
	}
	if err := s.CheckInvariants(); err == nil || err.Error() != loadErr.Error() {
		t.Errorf("CheckInvariants = %v, want Load's error %q", err, loadErr)
	}
	for name, save := range map[string]func(io.Writer) error{"v2": s.SaveBinary, "v3": s.SaveBinaryCompiled} {
		var out bytes.Buffer
		if err := save(&out); err == nil || err.Error() != loadErr.Error() || out.Len() != 0 {
			t.Errorf("%s writer: %v after %d bytes, want Load's error %q and nothing written", name, err, out.Len(), loadErr)
		}
	}
}

// TestCoverageMatchesProduct cross-checks the log2-space Coverage against
// the direct sum-of-fraction-products it replaced, on a circuit small
// enough for the products to be exact: the rewrite must change the
// numerics' robustness, not their value.
func TestCoverageMatchesProduct(t *testing.T) {
	c, fp := pairCircuit()
	s := NewStructure(c, fp)
	if _, err := s.Insert(mk(1, [2]int{1, 25}, full(), [2]int{1, 40}, full())); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Insert(mk(1, [2]int{60, 80}, [2]int{5, 30}, full(), full())); err != nil {
		t.Fatal(err)
	}
	want := 0.0
	for _, id := range s.IDs() {
		p := s.Get(id)
		frac := 1.0
		for i, b := range c.Blocks {
			frac *= float64(p.WIv(i).Len()) / float64(b.WRange().Len())
			frac *= float64(p.HIv(i).Len()) / float64(b.HRange().Len())
		}
		want += frac
	}
	got := s.Coverage()
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("Coverage = %g, product cross-check = %g", got, want)
	}
}

// TestLog2BoxVolumeWideRange pins the companion fix in
// placement.Log2BoxVolume: a validity box spanning [0, MaxInt] must report
// a finite positive log2 volume, not the NaN that int-length overflow
// produced.
func TestLog2BoxVolumeWideRange(t *testing.T) {
	p := &placement.Placement{
		ID: -1,
		X:  []int{0}, Y: []int{0},
		WLo: []int{0}, WHi: []int{math.MaxInt},
		HLo: []int{0}, HHi: []int{math.MaxInt},
	}
	lg := p.Log2BoxVolume()
	if math.IsNaN(lg) || lg <= 0 {
		t.Errorf("Log2BoxVolume = %g, want a finite positive value (~126)", lg)
	}
}
