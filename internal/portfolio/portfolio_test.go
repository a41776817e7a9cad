package portfolio

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"mps/internal/bdio"
	"mps/internal/circuits"
	"mps/internal/core"
	"mps/internal/cost"
	"mps/internal/explorer"
	"mps/internal/netlist"
	"mps/internal/template"
)

// genMember generates one small member structure for the circuit with the
// portfolio's member-seed rule and a template backup — the same shape the
// facade produces, at test-scale budgets.
func genMember(t testing.TB, c *netlist.Circuit, seed int64, i int) *core.Structure {
	t.Helper()
	s, _, err := explorer.GenerateContext(context.Background(), c, explorer.Config{
		Seed:          MemberSeed(seed, i),
		MaxIterations: 20,
		BDIO:          bdio.Config{Steps: 20},
	})
	if err != nil {
		t.Fatalf("generating member %d: %v", i, err)
	}
	s.Compact()
	s.SetBackup(template.Balanced(c))
	return s
}

// buildPortfolio generates a K-member portfolio for the circuit.
func buildPortfolio(t testing.TB, c *netlist.Circuit, seed int64, k int) *Portfolio {
	t.Helper()
	members := make([]*core.Structure, k)
	for i := range members {
		members[i] = genMember(t, c, seed, i)
	}
	p, err := New(members)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// memberProbe is member m's own walk, outside the portfolio's merged
// index: its covering slot and, when covered, that slot's area-rule terms.
func memberProbe(p *Portfolio, m int, ws, hs []int) (slot int, t cost.Terms, err error) {
	cs := core.Compile(p.Member(m))
	slots := []int{-1}
	err = core.Merge([]*core.CompiledStructure{cs}).Cover(ws, hs, slots)
	if slot = slots[0]; slot >= 0 {
		t = cs.Terms(slot, ws, hs, false)
	}
	return slot, t, err
}

// TestPortfolioPropertyAllCircuits is the acceptance property, checked on
// every seed circuit: (a) a K=3 portfolio's covered fraction is at least
// the best single member's (measured on one shared sample stream), and
// (b) on queries covered by two or more members, the routed result's
// bounding-box area is no larger than any individual covering member's
// area for that query.
func TestPortfolioPropertyAllCircuits(t *testing.T) {
	for _, name := range circuits.Names() {
		t.Run(name, func(t *testing.T) {
			c := circuits.MustByName(name)
			p := buildPortfolio(t, c, 1, 3)

			union, member := p.SampleCoverage(rand.New(rand.NewSource(7)), 2000)
			for m, frac := range member {
				if union < frac {
					t.Errorf("union coverage %.4f below member %d's %.4f", union, m, frac)
				}
			}

			// Route random queries; wherever >=2 members cover, the routed
			// area must win (or tie) against every covering member.
			rng := rand.New(rand.NewSource(11))
			n := c.N()
			ws, hs := make([]int, n), make([]int, n)
			multi := 0
			for trial := 0; trial < 4000; trial++ {
				for i, b := range c.Blocks {
					ws[i] = b.WMin + rng.Intn(b.WMax-b.WMin+1)
					hs[i] = b.HMin + rng.Intn(b.HMax-b.HMin+1)
				}
				res, err := p.Instantiate(ws, hs)
				if err != nil {
					t.Fatal(err)
				}
				covering := 0
				for m := 0; m < p.K(); m++ {
					slot, terms, err := memberProbe(p, m, ws, hs)
					if err != nil {
						t.Fatal(err)
					}
					if slot < 0 {
						continue
					}
					covering++
					rslot, routed, err := memberProbe(p, res.Member, ws, hs)
					if err != nil || rslot < 0 {
						t.Fatalf("routed member %d does not cover its own query (err %v)", res.Member, err)
					}
					if routed.Area > terms.Area {
						t.Fatalf("routed area %d (member %d) exceeds member %d's %d at %v/%v",
							routed.Area, res.Member, m, terms.Area, ws, hs)
					}
				}
				if covering == 0 && res.Member != -1 {
					t.Fatalf("no member covers %v/%v but routing answered from member %d", ws, hs, res.Member)
				}
				if covering > 0 && res.Member < 0 {
					t.Fatalf("%d members cover %v/%v but routing fell back to the backup", covering, ws, hs)
				}
				if covering >= 2 {
					multi++
				}
			}
			t.Logf("%s: union %.4f, members %v, %d/4000 queries covered by >=2 members",
				name, union, member, multi)
		})
	}
}

// TestRoutedAnswerMatchesMember checks that the routed result is exactly
// the winning member's own stored-placement answer, and the fallback is
// exactly member 0's backup answer — for a routed portfolio and for a
// one-member portfolio, which answers without a probe.
func TestRoutedAnswerMatchesMember(t *testing.T) {
	for _, k := range []int{1, 3} {
		t.Run(fmt.Sprintf("K=%d", k), func(t *testing.T) {
			c := circuits.MustByName("TwoStageOpamp")
			p := buildPortfolio(t, c, 3, k)
			rng := rand.New(rand.NewSource(5))
			n := c.N()
			ws, hs := make([]int, n), make([]int, n)
			routed, backed := 0, 0
			for trial := 0; trial < 3000; trial++ {
				for i, b := range c.Blocks {
					ws[i] = b.WMin + rng.Intn(b.WMax-b.WMin+1)
					hs[i] = b.HMin + rng.Intn(b.HMax-b.HMin+1)
				}
				res, err := p.Instantiate(ws, hs)
				if err != nil {
					t.Fatal(err)
				}
				if res.Member >= 0 {
					routed++
					want, err := p.Member(res.Member).Instantiate(ws, hs)
					if err != nil {
						t.Fatal(err)
					}
					if want.FromBackup || want.PlacementID != res.PlacementID {
						t.Fatalf("routed answer %+v does not match member %d's own answer %+v", res, res.Member, want)
					}
				} else {
					backed++
					want, err := p.Member(0).Instantiate(ws, hs)
					if err != nil {
						t.Fatal(err)
					}
					if !want.FromBackup || !res.FromBackup {
						t.Fatalf("fallback answer %+v does not match member 0's backup answer %+v", res, want)
					}
					for i := range want.X {
						if want.X[i] != res.X[i] || want.Y[i] != res.Y[i] {
							t.Fatalf("fallback anchors diverge from member 0's backup at block %d", i)
						}
					}
				}
			}
			if routed == 0 || backed == 0 {
				t.Fatalf("query stream not mixed: %d routed, %d backup", routed, backed)
			}
		})
	}
}

// TestRoutedCoveredAllocFree pins the serving property the CI micro-bench
// gates: a covered routed query through InstantiateWeightedInto allocates
// nothing, on the merged route (K=3), on the one-member direct route
// (K=1), and on the balanced K=8 portfolio, whose merged mask comes from
// the pool.
func TestRoutedCoveredAllocFree(t *testing.T) {
	c := circuits.MustByName("TwoStageOpamp")
	inputs := []struct {
		name string
		p    func(t *testing.T) *Portfolio
	}{
		{"K=1", func(t *testing.T) *Portfolio { return buildPortfolio(t, c, 9, 1) }},
		{"K=3", func(t *testing.T) *Portfolio { return buildPortfolio(t, c, 9, 3) }},
		{"balanced K=8", func(t *testing.T) *Portfolio {
			p, err := New(mustBalancedMembers(t))
			if err != nil {
				t.Fatal(err)
			}
			return p
		}},
	}
	for _, in := range inputs {
		t.Run(in.name, func(t *testing.T) {
			p := in.p(t)
			k := p.K()
			// A query inside a stored box of the last member: covered by
			// construction.
			m := p.Member(k - 1)
			ids := m.IDs()
			if len(ids) == 0 {
				t.Skipf("member %d stored no placements at test budgets", k-1)
			}
			pl := m.Get(ids[0])
			n := c.N()
			ws, hs := make([]int, n), make([]int, n)
			for i := 0; i < n; i++ {
				ws[i], hs[i] = pl.WLo[i], pl.HLo[i]
			}
			var res core.Result
			if member, err := p.InstantiateWeightedInto(&res, cost.Weights{}, ws, hs); err != nil || member < 0 {
				t.Fatalf("warmup: member %d, err %v — want a covered routed answer", member, err)
			}
			allocs := testing.AllocsPerRun(200, func() {
				if member, err := p.InstantiateWeightedInto(&res, cost.Weights{}, ws, hs); err != nil || member < 0 {
					t.Fatalf("member %d, err %v", member, err)
				}
			})
			if allocs != 0 {
				t.Fatalf("covered routed query allocates %.1f objects, want 0", allocs)
			}
		})
	}
}

// TestNewValidation covers the constructor's error paths.
func TestNewValidation(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Error("New(nil) succeeded, want error")
	}
	a := genMember(t, circuits.MustByName("circ01"), 1, 0)
	b := genMember(t, circuits.MustByName("circ02"), 1, 0)
	if _, err := New([]*core.Structure{a, b}); err == nil {
		t.Error("mixed-circuit portfolio accepted, want error")
	}
	if _, err := New([]*core.Structure{a, nil}); err == nil {
		t.Error("nil member accepted, want error")
	}
	if _, err := New(make([]*core.Structure, MaxMembers+1)); err == nil {
		t.Error("oversized portfolio accepted, want error")
	}
	p, err := New([]*core.Structure{a})
	if err != nil {
		t.Fatalf("K=1 portfolio: %v", err)
	}
	if p.K() != 1 || p.NumPlacements() != a.NumPlacements() {
		t.Errorf("K=1 portfolio K=%d placements=%d, want 1/%d", p.K(), p.NumPlacements(), a.NumPlacements())
	}
}

// TestMemberSeedDistinct pins the seed rule: distinct members get distinct
// seeds and member 0 keeps the base seed (so a portfolio's first member
// deduplicates against the plain single-structure spec).
func TestMemberSeedDistinct(t *testing.T) {
	if MemberSeed(42, 0) != 42 {
		t.Errorf("MemberSeed(42, 0) = %d, want 42", MemberSeed(42, 0))
	}
	seen := map[int64]bool{}
	for i := 0; i < MaxMembers; i++ {
		s := MemberSeed(42, i)
		if seen[s] {
			t.Fatalf("duplicate member seed %d at i=%d", s, i)
		}
		seen[s] = true
	}
}
