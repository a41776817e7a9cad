package portfolio

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"mps/internal/circuits"
	"mps/internal/core"
	"mps/internal/cost"
	"mps/internal/geom"
	"mps/internal/netlist"
	"mps/internal/placement"
)

// TestWeightedRouteDegeneratesToAreaRule is the tie-break property pin:
// across all 9 seed circuits, routing under the zero vector and under a
// pure-area vector must reproduce the legacy (area, dead space, index)
// decision query for query — the compatibility contract that lets the
// weighted rule replace the area rule without moving a single existing
// routing decision.
func TestWeightedRouteDegeneratesToAreaRule(t *testing.T) {
	for _, name := range circuits.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			c := circuits.MustByName(name)
			p := buildPortfolio(t, c, 7, 3)
			single, err := New([]*core.Structure{p.Member(0)})
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(31))
			n := c.N()
			ws, hs := make([]int, n), make([]int, n)
			routed := 0
			for q := 0; q < 200; q++ {
				for i, b := range c.Blocks {
					ws[i] = b.WRange().Rand(rng)
					hs[i] = b.HRange().Rand(rng)
				}
				assertDirectAnswer(t, single, ws, hs)
				res, err := p.Instantiate(ws, hs)
				if err != nil {
					t.Fatal(err)
				}
				legacy := res.Member
				if legacy >= 0 {
					routed++
				}
				zero, _, err := p.Route(cost.Weights{}, ws, hs)
				if err != nil {
					t.Fatal(err)
				}
				if zero != legacy {
					t.Fatalf("query %d: zero-vector route %d != legacy %d", q, zero, legacy)
				}
				pureArea, _, err := p.Route(cost.Weights{Area: 1}, ws, hs)
				if err != nil {
					t.Fatal(err)
				}
				if pureArea != legacy {
					t.Fatalf("query %d: pure-area route %d != legacy %d", q, pureArea, legacy)
				}
			}
			// Dimension errors surface identically on the direct route.
			ws[0] = c.Blocks[0].WMax + 1
			assertDirectAnswer(t, single, ws, hs)
			assertDirectAnswer(t, single, ws[:n-1], hs)
			if routed == 0 {
				t.Skip("no covered queries sampled — property did not bite on this circuit")
			}
		})
	}
}

// weightedPair builds a 2-member portfolio with a hand-crafted
// wire/area tradeoff on the query (4,4,4)/(4,4,4):
//
//	member 0: a,b adjacent (wire 4), c stacked — bbox 8x8 = 64
//	member 1: a,c,b in a row (wire 8) — bbox 12x4 = 48
//
// so the area rule picks member 1 and a wire-leaning vector member 0.
func weightedPair(t *testing.T) (*Portfolio, []int, []int) {
	t.Helper()
	b := netlist.NewBuilder("tradeoff")
	for _, n := range []string{"a", "b", "c"} {
		b.Block(n, 4, 8, 4, 8)
	}
	b.Net("ab", 1, netlist.P("a"), netlist.P("b"))
	c := b.MustBuild()
	fp := geom.NewRect(0, 0, 100, 100)

	mk := func(xs, ys []int) *core.Structure {
		s := core.NewStructure(c, fp)
		four := []int{4, 4, 4}
		p := &placement.Placement{
			ID: -1, X: xs, Y: ys,
			WLo: four, WHi: four, HLo: four, HHi: four,
			AvgCost: 1, BestCost: 1,
		}
		if _, err := s.Insert(p); err != nil {
			t.Fatal(err)
		}
		return s
	}
	compact := mk([]int{0, 4, 0}, []int{0, 0, 4}) // bbox 8x8, wire 4
	rowwise := mk([]int{0, 8, 4}, []int{0, 0, 0}) // bbox 12x4, wire 8

	p, err := New([]*core.Structure{compact, rowwise})
	if err != nil {
		t.Fatal(err)
	}
	return p, []int{4, 4, 4}, []int{4, 4, 4}
}

// TestWeightedRouteFollowsQueryWeights pins that one portfolio answers
// differently weighted queries from different members: the defining
// behavior of weight-aware routing.
func TestWeightedRouteFollowsQueryWeights(t *testing.T) {
	p, ws, hs := weightedPair(t)
	area, _, err := p.Route(cost.Weights{}, ws, hs)
	if err != nil {
		t.Fatal(err)
	}
	if area != 1 {
		t.Fatalf("area rule routed to %d, want 1 (the smaller bbox)", area)
	}
	wire, _, err := p.Route(cost.Weights{Wire: 1, Area: 0.01}, ws, hs)
	if err != nil {
		t.Fatal(err)
	}
	if wire != 0 {
		t.Fatalf("wire-leaning rule routed to %d, want 0 (the shorter net)", wire)
	}

	// The weighted instantiation answers with the routed member's anchors.
	res, err := p.InstantiateWeighted(cost.Weights{Wire: 1, Area: 0.01}, ws, hs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Member != 0 || res.FromBackup {
		t.Fatalf("weighted instantiate answered member %d (backup %v), want member 0", res.Member, res.FromBackup)
	}

	// Route reports the winner and its exact objective vector.
	m, terms, err := p.Route(cost.Weights{Wire: 1, Area: 0.01}, ws, hs)
	if err != nil {
		t.Fatal(err)
	}
	if m != 0 || terms.Wire != 4 || terms.Area != 64 {
		t.Fatalf("Route = member %d terms %+v, want member 0 wire 4 area 64", m, terms)
	}
	m, terms, err = p.Route(cost.Weights{Area: 1}, ws, hs)
	if err != nil {
		t.Fatal(err)
	}
	if m != 1 || terms.Area != 48 || terms.Wire != 8 {
		t.Fatalf("Route(area) = member %d terms %+v, want member 1 area 48 wire 8", m, terms)
	}

	// K=1: each member alone answers covered, uncovered (no backup
	// installed) and out-of-bounds queries exactly as it does itself,
	// whatever the query's weights.
	for m := 0; m < p.K(); m++ {
		single, err := New([]*core.Structure{p.Member(m)})
		if err != nil {
			t.Fatal(err)
		}
		assertDirectAnswer(t, single, ws, hs)
		assertDirectAnswer(t, single, []int{5, 5, 5}, []int{5, 5, 5})
		assertDirectAnswer(t, single, []int{9, 4, 4}, hs)
	}
}

// assertDirectAnswer checks that the one-member portfolio p answers the
// query under every weighting exactly as its member's compiled index does:
// the same placement ID, anchors, backup flag, and error, with member 0 for
// a stored answer and -1 otherwise.
func assertDirectAnswer(t *testing.T, p *Portfolio, ws, hs []int) {
	t.Helper()
	var want core.Result
	wantErr := core.Compile(p.Member(0)).InstantiateInto(&want, ws, hs)
	wantMember := 0
	if wantErr != nil || want.FromBackup {
		wantMember = -1
	}
	for _, w := range []cost.Weights{{}, {Area: 1}, cost.WireHeavyWeights, cost.AspectHeavyWeights} {
		var got core.Result
		member, err := p.InstantiateWeightedInto(&got, w, ws, hs)
		if fmt.Sprint(err) != fmt.Sprint(wantErr) || member != wantMember {
			t.Fatalf("weights %+v: member %d, err %v; want member %d, err %v", w, member, err, wantMember, wantErr)
		}
		if err == nil && (got.PlacementID != want.PlacementID || got.FromBackup != want.FromBackup ||
			!slices.Equal(got.X, want.X) || !slices.Equal(got.Y, want.Y)) {
			t.Fatalf("weights %+v: answer %+v, want %+v", w, got, want)
		}
	}
}
