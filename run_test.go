package mps

import (
	"bytes"
	"context"
	"math/rand"
	"strings"
	"testing"
)

// tinyOpts keeps Run tests in the milliseconds: explicit small budgets
// beat even the quick preset.
func tinyOpts(seed int64) Options {
	return Options{Seed: seed, Iterations: 12, BDIOSteps: 30}
}

func TestRunGABackend(t *testing.T) {
	c, err := Benchmark("circ01")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), Request{Circuit: c, Options: tinyOpts(2), Backend: "ga"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Structure.NumPlacements() == 0 {
		t.Error("GA backend stored no placements")
	}
	rng := rand.New(rand.NewSource(4))
	ws, hs := randomDims(c, rng)
	if _, err := res.Structure.Instantiate(ws, hs); err != nil {
		t.Fatal(err)
	}
}

func TestRunUnknownBackend(t *testing.T) {
	c, err := Benchmark("circ01")
	if err != nil {
		t.Fatal(err)
	}
	_, err = Run(context.Background(), Request{Circuit: c, Options: tinyOpts(1), Backend: "bogus"})
	if err == nil {
		t.Fatal("unknown backend accepted")
	}
	for _, want := range []string{`"bogus"`, "anneal", "ga"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %s", err, want)
		}
	}
}

// assertMembersSolo checks that each member of a portfolio Run made from
// opts and backend is bit-identical to a standalone K=0 run of the same
// backend at the member's derived seed under weights[i]: the dedup rule
// the serving layer relies on.
func assertMembersSolo(t *testing.T, c *Circuit, opts Options, backend string, weights []Weights, p *Portfolio) {
	t.Helper()
	if p.K() != len(weights) {
		t.Fatalf("K() = %d, want %d", p.K(), len(weights))
	}
	for i, w := range weights {
		mopts := opts
		mopts.Seed = PortfolioMemberSeed(opts.Seed, i)
		solo, err := Run(context.Background(), Request{Circuit: c, Options: mopts, Backend: backend, Weights: w})
		if err != nil {
			t.Fatal(err)
		}
		var a, b bytes.Buffer
		if err := solo.Structure.SaveBinary(&a); err != nil {
			t.Fatal(err)
		}
		ms := &Structure{Structure: p.Member(i)}
		if err := ms.SaveBinary(&b); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Errorf("%s member %d differs from a standalone run at its derived seed under %+v", backend, i, w)
		}
	}
}

// TestRunPortfolioMixedBackends: a K=2 portfolio per backend, each member
// bit-identical to the same backend run standalone from the derived member
// seed and its ladder rung. (A weightless K>1 request gets the default
// weight ladder, so the standalone runs name their rung explicitly.) A
// portfolio mixing backends is assembled from such members with
// NewPortfolio, and routes across them.
func TestRunPortfolioMixedBackends(t *testing.T) {
	c, err := Benchmark("circ01")
	if err != nil {
		t.Fatal(err)
	}
	opts := tinyOpts(5)
	var mixed []*Structure
	for i, backend := range []string{"anneal", "ga"} {
		res, err := Run(context.Background(), Request{Circuit: c, Options: opts, Backend: backend, K: 2})
		if err != nil {
			t.Fatal(err)
		}
		if res.Portfolio == nil || res.Structure != nil {
			t.Fatalf("%s: portfolio result shape wrong: %+v", backend, res)
		}
		if len(res.Stats) != 2 {
			t.Fatalf("%s: len(Stats) = %d, want 2", backend, len(res.Stats))
		}
		assertMembersSolo(t, c, opts, backend, WeightLadder(2), res.Portfolio)
		mixed = append(mixed, &Structure{Structure: res.Portfolio.Member(i)})
	}

	p, err := NewPortfolio(mixed)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	for q := 0; q < 32; q++ {
		ws, hs := randomDims(c, rng)
		pres, err := p.Instantiate(ws, hs)
		if err != nil {
			t.Fatal(err)
		}
		if pres.Member < -1 || pres.Member > 1 {
			t.Fatalf("routed to member %d of a 2-member portfolio", pres.Member)
		}
	}
}

func TestRunRejectsBadShapes(t *testing.T) {
	c, err := Benchmark("circ01")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(context.Background(), Request{Options: tinyOpts(1)}); err == nil {
		t.Error("nil circuit accepted")
	}
	if _, err := Run(context.Background(), Request{Circuit: c, Options: tinyOpts(1), K: -1}); err == nil {
		t.Error("negative K accepted")
	}
	if _, err := Run(context.Background(), Request{Circuit: c, Options: tinyOpts(1), K: MaxPortfolioMembers + 1}); err == nil {
		t.Error("oversized K accepted")
	}
	if _, err := Run(context.Background(), Request{
		Circuit: c, Options: tinyOpts(1), MemberWeights: []Weights{{Wire: 1}},
	}); err == nil {
		t.Error("MemberWeights on a single-structure request accepted")
	}
	if _, err := Run(context.Background(), Request{
		Circuit: c, Options: tinyOpts(1), K: 3, MemberWeights: []Weights{{Wire: 1}},
	}); err == nil {
		t.Error("mismatched MemberWeights length accepted")
	}
	if _, err := Run(context.Background(), Request{
		Circuit: c, Options: tinyOpts(1), Weights: Weights{Wire: -1},
	}); err == nil {
		t.Error("negative request weights accepted")
	}
	if _, err := Run(context.Background(), Request{
		Circuit: c, Options: tinyOpts(1), K: 2, MemberWeights: []Weights{{Wire: 1}, {Area: -2}},
	}); err == nil {
		t.Error("negative member weights accepted")
	}
}

// TestRunWeightLadderDefault pins the weight-diversity default: a
// weightless K>1 request generates each member under its ladder rung, and
// an explicit all-zero MemberWeights opts out to weightless members. Every
// member is bit-identical to a standalone K=0 run at its derived seed
// under the objective it should have had, so the ladder changes which
// objective members optimize, never how a given (seed, weights)
// generation behaves.
func TestRunWeightLadderDefault(t *testing.T) {
	c, err := Benchmark("circ01")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), Request{Circuit: c, Options: tinyOpts(9), K: 3})
	if err != nil {
		t.Fatal(err)
	}
	assertMembersSolo(t, c, tinyOpts(9), DefaultBackend, WeightLadder(3), res.Portfolio)

	optOut, err := Run(context.Background(), Request{
		Circuit: c, Options: tinyOpts(9), K: 3, MemberWeights: make([]Weights, 3),
	})
	if err != nil {
		t.Fatal(err)
	}
	assertMembersSolo(t, c, tinyOpts(9), DefaultBackend, make([]Weights, 3), optOut.Portfolio)

	// The ladder must have changed what generated: at these budgets a
	// rung-weighted member differs from its weightless twin.
	differs := 0
	for i := 0; i < 3; i++ {
		var a, b bytes.Buffer
		if err := (&Structure{Structure: res.Portfolio.Member(i)}).SaveBinary(&a); err != nil {
			t.Fatal(err)
		}
		if err := (&Structure{Structure: optOut.Portfolio.Member(i)}).SaveBinary(&b); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			differs++
		}
	}
	if differs == 0 {
		t.Error("every ladder member is bit-identical to its opted-out twin: the ladder generated nothing different")
	}
}
