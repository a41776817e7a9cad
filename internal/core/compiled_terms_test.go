package core

import (
	"math/rand"
	"testing"

	"mps/internal/cost"
	"mps/internal/geom"
	"mps/internal/netlist"
)

// termsStructure is codecStructure with a deliberately rich net list —
// a weighted 3-pin net, a pad stub and a plain 2-pin net — so the wire
// term exercises every branch of cost.netLength the netlist builder can
// produce.
func termsStructure(t testing.TB, count int) *Structure {
	t.Helper()
	b := netlist.NewBuilder("terms")
	for _, n := range []string{"a", "b", "c", "d"} {
		b.Block(n, 1, 4*count+48, 1, 40)
	}
	b.Net("tri", 2.5, netlist.P("a"), netlist.PAt("b", 0.25, 0.75), netlist.P("c"))
	b.Net("pad", 1.5, netlist.T("d", 0.5, 0.5))
	b.Net("pair", 0, netlist.P("c"), netlist.P("d")) // weight 0 counts as 1
	c := b.MustBuild()
	fp := geom.NewRect(0, 0, 16*count+400, 16*count+400)
	s := NewStructure(c, fp)
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < count; i++ {
		lo := 4*i + 1
		p := mk(1+rng.Float64(), [2]int{lo, lo + 3}, [2]int{1, 40}, [2]int{1, 40}, [2]int{1, 40})
		p.X = []int{0, 100, 200, 300}
		p.Y = []int{0, 100, 200, 300}
		p.WLo = append(p.WLo, 1, 1)
		p.WHi = append(p.WHi, 40, 40)
		p.HLo = append(p.HLo, 1, 1)
		p.HHi = append(p.HHi, 40, 40)
		if _, err := storePlacement(s, p); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// probe is one member's routing step: its covering slot from a merged
// walk over mi, a one-member index, and that slot's terms (zero when no
// placement covers).
func probe(mi *MergedIndex, ws, hs []int, wire bool) (slot int, t cost.Terms, err error) {
	var slots [1]int
	err = mi.Cover(ws, hs, slots[:])
	if slot = slots[0]; slot >= 0 {
		t = mi.members[0].Terms(slot, ws, hs, wire)
	}
	return slot, t, err
}

// TestCoveredTermsMatchesCostVector is the terms' defining property:
// on every covered query, Terms equals cost.Vector evaluated on the
// instantiated layout, and without the wire term it is the same vector
// with Wire zero.
func TestCoveredTermsMatchesCostVector(t *testing.T) {
	s := termsStructure(t, 40)
	cs := Compile(s)
	mi := Merge([]*CompiledStructure{cs})
	rng := rand.New(rand.NewSource(3))
	n := s.circuit.N()
	ws, hs := make([]int, n), make([]int, n)
	var res Result
	covered := 0
	for trial := 0; trial < 2000; trial++ {
		if trial%2 == 0 {
			// Inside placement trial%40's validity box: block a's width in
			// [4i+1, 4i+4], everything else within the shared [1, 40].
			i := rng.Intn(40)
			ws[0] = 4*i + 1 + rng.Intn(4)
			for j := 1; j < n; j++ {
				ws[j] = 1 + rng.Intn(40)
			}
			for j := 0; j < n; j++ {
				hs[j] = 1 + rng.Intn(40)
			}
		} else {
			randomDims(s, rng, ws, hs)
		}
		slot, terms, err := probe(mi, ws, hs, true)
		if err != nil {
			t.Fatal(err)
		}
		areaSlot, noWire, err := probe(mi, ws, hs, false)
		if err != nil {
			t.Fatal(err)
		}
		if slot != areaSlot {
			t.Fatalf("probe with wire found slot %d but without wire slot %d at %v/%v", slot, areaSlot, ws, hs)
		}
		if slot < 0 {
			continue
		}
		covered++
		if noWire.Wire != 0 || noWire.Area != terms.Area || noWire.Dead != terms.Dead || noWire.Aspect != terms.Aspect {
			t.Fatalf("terms without wire %+v != terms %+v less wire", noWire, terms)
		}
		if err := cs.AnswerInto(&res, slot, ws, hs); err != nil || res.FromBackup {
			t.Fatalf("covered query did not instantiate: backup=%v err=%v", res.FromBackup, err)
		}
		want := cost.Vector(&cost.Layout{
			Circuit: s.circuit, X: res.X, Y: res.Y, W: ws, H: hs, Floorplan: s.fp,
		})
		if terms != want {
			t.Fatalf("Terms %+v != cost.Vector %+v at %v/%v", terms, want, ws, hs)
		}
	}
	if covered < 100 {
		t.Fatalf("only %d/2000 covered queries — the property barely ran", covered)
	}
}

// TestCoveredTermsAllocFree pins the routing-probe contract weighted
// portfolio routing relies on: zero allocations per covered probe (a
// merged walk plus the terms), wire term included.
func TestCoveredTermsAllocFree(t *testing.T) {
	s := termsStructure(t, 40)
	cs := Compile(s)
	mi := Merge([]*CompiledStructure{cs})
	n := s.circuit.N()
	ws, hs := make([]int, n), make([]int, n)
	rng := rand.New(rand.NewSource(9))
	for {
		randomDims(s, rng, ws, hs)
		if slot, _, _ := probe(mi, ws, hs, true); slot >= 0 {
			break
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		if slot, _, err := probe(mi, ws, hs, true); slot < 0 || err != nil {
			t.Fatalf("probe lost coverage: slot=%d err=%v", slot, err)
		}
	})
	if allocs != 0 {
		t.Fatalf("probe allocates %.1f per covered probe, want 0", allocs)
	}
}
