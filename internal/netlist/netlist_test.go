package netlist

import (
	"reflect"
	"strings"
	"sync"
	"testing"

	"mps/internal/geom"
)

func validCircuit() *Circuit {
	b := NewBuilder("test")
	b.Block("a", 4, 10, 4, 10)
	b.Block("b", 2, 8, 2, 8)
	b.Net("n1", 1, P("a"), P("b"))
	return b.MustBuild()
}

func TestCircuitValidateOK(t *testing.T) {
	c := validCircuit()
	if err := c.Validate(); err != nil {
		t.Fatalf("Validate() = %v, want nil", err)
	}
	if c.N() != 2 {
		t.Errorf("N() = %d, want 2", c.N())
	}
}

func TestBlockValidate(t *testing.T) {
	tests := []struct {
		name    string
		b       Block
		wantErr string
	}{
		{"ok", Block{Name: "x", WMin: 1, WMax: 2, HMin: 1, HMax: 2}, ""},
		{"zero wmin", Block{Name: "x", WMin: 0, WMax: 2, HMin: 1, HMax: 2}, "non-positive"},
		{"negative hmin", Block{Name: "x", WMin: 1, WMax: 2, HMin: -1, HMax: 2}, "non-positive"},
		{"inverted w", Block{Name: "x", WMin: 5, WMax: 2, HMin: 1, HMax: 2}, "inverted"},
		{"inverted h", Block{Name: "x", WMin: 1, WMax: 2, HMin: 5, HMax: 2}, "inverted"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.b.Validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Errorf("Validate() = %v, want nil", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("Validate() = %v, want error containing %q", err, tc.wantErr)
			}
		})
	}
}

func TestCircuitValidateErrors(t *testing.T) {
	tests := []struct {
		name    string
		make    func() *Circuit
		wantErr string
	}{
		{
			"no name",
			func() *Circuit { c := validCircuit(); c.Name = ""; return c },
			"no name",
		},
		{
			"no blocks",
			func() *Circuit { return &Circuit{Name: "x"} },
			"no blocks",
		},
		{
			"duplicate block",
			func() *Circuit {
				c := validCircuit()
				c.Blocks = append(c.Blocks, &Block{Name: "a", WMin: 1, WMax: 2, HMin: 1, HMax: 2})
				return c
			},
			"duplicate",
		},
		{
			"empty net",
			func() *Circuit {
				c := validCircuit()
				c.Nets = append(c.Nets, &Net{Name: "bad"})
				return c
			},
			"no pins",
		},
		{
			"single non-terminal pin",
			func() *Circuit {
				c := validCircuit()
				c.Nets = append(c.Nets, &Net{Name: "bad", Pins: []Pin{{Block: 0, FracX: 0.5, FracY: 0.5}}})
				return c
			},
			"single non-terminal",
		},
		{
			"pin out of range",
			func() *Circuit {
				c := validCircuit()
				c.Nets[0].Pins[0].Block = 99
				return c
			},
			"references block",
		},
		{
			"pin fraction out of range",
			func() *Circuit {
				c := validCircuit()
				c.Nets[0].Pins[0].FracX = 1.5
				return c
			},
			"outside [0,1]",
		},
		{
			"negative weight",
			func() *Circuit {
				c := validCircuit()
				c.Nets[0].Weight = -1
				return c
			},
			"negative weight",
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.make().Validate()
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("Validate() = %v, want error containing %q", err, tc.wantErr)
			}
		})
	}
}

func TestValidateDefaultsNetWeight(t *testing.T) {
	c := validCircuit()
	c.Nets[0].Weight = 0
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.Nets[0].Weight != 1 {
		t.Errorf("weight = %g, want defaulted to 1", c.Nets[0].Weight)
	}
}

func TestPinPosition(t *testing.T) {
	tests := []struct {
		name       string
		pin        Pin
		x, y, w, h int
		want       geom.Point
	}{
		{"center", Pin{FracX: 0.5, FracY: 0.5}, 10, 20, 8, 6, geom.Point{X: 14, Y: 23}},
		{"origin corner", Pin{FracX: 0, FracY: 0}, 10, 20, 8, 6, geom.Point{X: 10, Y: 20}},
		{"far corner", Pin{FracX: 1, FracY: 1}, 10, 20, 8, 6, geom.Point{X: 18, Y: 26}},
		{"asymmetric", Pin{FracX: 0.25, FracY: 0.75}, 0, 0, 8, 8, geom.Point{X: 2, Y: 6}},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			got := tc.pin.Position(tc.x, tc.y, tc.w, tc.h)
			if got != tc.want {
				t.Errorf("Position = %v, want %v", got, tc.want)
			}
		})
	}
}

func TestPinPositionScalesWithDims(t *testing.T) {
	p := Pin{FracX: 1, FracY: 1}
	small := p.Position(0, 0, 4, 4)
	large := p.Position(0, 0, 40, 40)
	if small == large {
		t.Error("pin position should move when block dimensions change")
	}
}

func TestTerminalsAndPinCount(t *testing.T) {
	b := NewBuilder("terms")
	b.Block("a", 1, 2, 1, 2)
	b.Block("b", 1, 2, 1, 2)
	b.Net("n1", 1, T("a", 0, 0.5), P("b"))
	b.Net("n2", 1, T("a", 1, 0.5), T("b", 0, 0.5), P("a"))
	c := b.MustBuild()
	if got := c.Terminals(); got != 3 {
		t.Errorf("Terminals() = %d, want 3", got)
	}
	if got := c.PinCount(); got != 5 {
		t.Errorf("PinCount() = %d, want 5", got)
	}
}

func TestAreas(t *testing.T) {
	c := validCircuit() // a: 10x10 max / 4x4 min, b: 8x8 max / 2x2 min
	if got := c.MaxArea(); got != 164 {
		t.Errorf("MaxArea() = %d, want 164", got)
	}
	if got := c.MinArea(); got != 20 {
		t.Errorf("MinArea() = %d, want 20", got)
	}
}

func TestBlockIndex(t *testing.T) {
	c := validCircuit()
	if got := c.BlockIndex("b"); got != 1 {
		t.Errorf("BlockIndex(b) = %d, want 1", got)
	}
	if got := c.BlockIndex("zzz"); got != -1 {
		t.Errorf("BlockIndex(zzz) = %d, want -1", got)
	}
}

func TestDimensionSpaceLog2Volume(t *testing.T) {
	b := NewBuilder("vol")
	b.Block("a", 1, 4, 1, 4) // 4 widths x 4 heights = 16 -> log2 = 4
	b.Block("c", 1, 2, 1, 2) // 2 x 2 = 4 -> log2 = 2
	b.Net("n", 1, P("a"), P("c"))
	c := b.MustBuild()
	got := c.DimensionSpaceLog2Volume()
	if got < 5.5 || got > 6.5 { // exact 6 with exact log2; ours interpolates
		t.Errorf("DimensionSpaceLog2Volume() = %g, want ~6", got)
	}
}

func TestBuilderErrors(t *testing.T) {
	b := NewBuilder("dup")
	b.Block("a", 1, 2, 1, 2)
	b.Block("a", 1, 2, 1, 2)
	if _, err := b.Build(); err == nil {
		t.Error("duplicate block should fail Build")
	}

	b2 := NewBuilder("unknown")
	b2.Block("a", 1, 2, 1, 2)
	b2.Net("n", 1, P("a"), P("nope"))
	if _, err := b2.Build(); err == nil {
		t.Error("unknown block in net should fail Build")
	}
}

func TestBuilderWRangeHRange(t *testing.T) {
	blk := &Block{Name: "x", WMin: 3, WMax: 9, HMin: 2, HMax: 5}
	if got := blk.WRange(); got != geom.NewInterval(3, 9) {
		t.Errorf("WRange = %v", got)
	}
	if got := blk.HRange(); got != geom.NewInterval(2, 5) {
		t.Errorf("HRange = %v", got)
	}
}

// TestBlockNets: each block lists, once and in ascending order, exactly
// the nets with a pin on it, and concurrent first calls on a fresh
// circuit (portfolio members generate concurrently on one circuit) agree
// without a data race.
func TestBlockNets(t *testing.T) {
	b := NewBuilder("nets")
	b.Block("a", 4, 10, 4, 10)
	b.Block("b", 4, 10, 4, 10)
	b.Block("c", 4, 10, 4, 10)
	b.Block("d", 4, 10, 4, 10)
	b.Net("n0", 1, P("a"), P("b"))
	b.Net("n1", 1, P("b"), PAt("b", 0, 1), P("c"))
	b.Net("n2", 1, T("a", 0, 0))
	c := b.MustBuild()
	want := [][]int{{0, 2}, {0, 1}, {1}, nil}
	const readers = 8
	got := make([][][]int, readers)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g] = c.BlockNets()
		}()
	}
	wg.Wait()
	for g := range got {
		if !reflect.DeepEqual(got[g], want) {
			t.Fatalf("reader %d: BlockNets = %v, want %v", g, got[g], want)
		}
	}
}
