package circuits

import (
	"reflect"
	"testing"
)

// TestTable1Counts is the Table 1 reproduction check: every benchmark must
// have exactly the published block, net and terminal (total pin) counts.
func TestTable1Counts(t *testing.T) {
	for _, e := range Table1 {
		t.Run(e.Name, func(t *testing.T) {
			c, err := ByName(e.Name)
			if err != nil {
				t.Fatal(err)
			}
			if got := c.N(); got != e.Blocks {
				t.Errorf("blocks = %d, want %d", got, e.Blocks)
			}
			if got := len(c.Nets); got != e.Nets {
				t.Errorf("nets = %d, want %d", got, e.Nets)
			}
			if got := c.PinCount(); got != e.Terminals {
				t.Errorf("terminals (total pins) = %d, want %d", got, e.Terminals)
			}
		})
	}
}

func TestAllBenchmarksValidate(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			c := MustByName(name)
			if err := c.Validate(); err != nil {
				t.Errorf("Validate() = %v", err)
			}
		})
	}
}

func TestByNameUnknown(t *testing.T) {
	if _, err := ByName("nope"); err == nil {
		t.Error("unknown benchmark should return an error")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustByName should panic on unknown benchmark")
		}
	}()
	MustByName("nope")
}

// TestCheckNameMatchesByName pins CheckName to ByName: the same names
// pass, and the rest fail with ByName's error text.
func TestCheckNameMatchesByName(t *testing.T) {
	for _, name := range append(Names(), "nope", "", "Circ01", "circ01 ") {
		_, berr := ByName(name)
		cerr := CheckName(name)
		if (berr == nil) != (cerr == nil) || (berr != nil && berr.Error() != cerr.Error()) {
			t.Errorf("%q: CheckName %v, ByName %v", name, cerr, berr)
		}
	}
}

// TestDeterministicConstruction ensures the same benchmark name always
// produces an identical circuit — required for the "generate once, reuse"
// workflow to be reproducible.
func TestDeterministicConstruction(t *testing.T) {
	for _, name := range Names() {
		a := MustByName(name)
		b := MustByName(name)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two constructions differ", name)
		}
	}
}

func TestNamedCircuitsHaveStructure(t *testing.T) {
	tso := TwoStageOpamp()
	if tso.BlockIndex("DIFF") < 0 || tso.BlockIndex("CC") < 0 {
		t.Error("TwoStageOpamp missing expected blocks")
	}
	// The Miller path OUT1 must couple four blocks.
	found := false
	for _, n := range tso.Nets {
		if n.Name == "OUT1" && len(n.Pins) == 4 {
			found = true
		}
	}
	if !found {
		t.Error("TwoStageOpamp OUT1 net should have 4 pins (DIFF, LOAD, DRV gate, CC)")
	}

	seo := SingleEndedOpamp()
	if seo.N() != 9 {
		t.Errorf("SingleEndedOpamp blocks = %d, want 9", seo.N())
	}
	mix := Mixer()
	if mix.BlockIndex("RFPAIR") < 0 {
		t.Error("Mixer missing RFPAIR")
	}
}

func TestSyntheticExactCounts(t *testing.T) {
	specs := []SyntheticSpec{
		{Name: "s1", Blocks: 3, Nets: 2, Pins: 6, Seed: 1},
		{Name: "s2", Blocks: 10, Nets: 20, Pins: 25, Seed: 2},
		{Name: "s3", Blocks: 25, Nets: 50, Pins: 50, Seed: 3},
		{Name: "s4", Blocks: 5, Nets: 3, Pins: 15, Seed: 4},
	}
	for _, spec := range specs {
		t.Run(spec.Name, func(t *testing.T) {
			c := Synthetic(spec)
			if c.N() != spec.Blocks {
				t.Errorf("blocks = %d, want %d", c.N(), spec.Blocks)
			}
			if len(c.Nets) != spec.Nets {
				t.Errorf("nets = %d, want %d", len(c.Nets), spec.Nets)
			}
			if c.PinCount() != spec.Pins {
				t.Errorf("pins = %d, want %d", c.PinCount(), spec.Pins)
			}
			if err := c.Validate(); err != nil {
				t.Errorf("Validate() = %v", err)
			}
		})
	}
}

func TestSyntheticSinglePinNetsAreTerminals(t *testing.T) {
	c := Benchmark24()
	for _, n := range c.Nets {
		if len(n.Pins) == 1 && !n.Pins[0].IsTerminal {
			t.Errorf("net %s: single-pin net must be a terminal pad stub", n.Name)
		}
	}
}

func TestSyntheticMultiPinNetsConnectDistinctBlocks(t *testing.T) {
	c := TSOCascode()
	multi := 0
	for _, n := range c.Nets {
		if len(n.Pins) < 2 {
			continue
		}
		multi++
		seen := map[int]bool{}
		for _, p := range n.Pins {
			if seen[p.Block] {
				t.Errorf("net %s connects block %d twice", n.Name, p.Block)
			}
			seen[p.Block] = true
		}
	}
	if multi == 0 {
		t.Error("tso-cascode should have multi-pin nets forming a signal spine")
	}
}

func TestSyntheticInvalidSpecPanics(t *testing.T) {
	bad := []SyntheticSpec{
		{Name: "x", Blocks: 0, Nets: 1, Pins: 1},
		{Name: "x", Blocks: 1, Nets: 0, Pins: 1},
		{Name: "x", Blocks: 1, Nets: 3, Pins: 2}, // fewer pins than nets
	}
	for _, spec := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("spec %+v should panic", spec)
				}
			}()
			Synthetic(spec)
		}()
	}
}

func TestSyntheticSeedChangesTopology(t *testing.T) {
	a := Synthetic(SyntheticSpec{Name: "s", Blocks: 8, Nets: 8, Pins: 24, Seed: 1})
	b := Synthetic(SyntheticSpec{Name: "s", Blocks: 8, Nets: 8, Pins: 24, Seed: 2})
	if reflect.DeepEqual(a, b) {
		t.Error("different seeds should produce different circuits")
	}
}
