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

	// Member backends are validated before any generation starts.
	_, err = Run(context.Background(), Request{
		Circuit: c, Options: tinyOpts(1), K: 2, MemberBackends: []string{"anneal", "bogus"},
	})
	if err == nil || !strings.Contains(err.Error(), "member 1") {
		t.Errorf("bad member backend error = %v, want a member-1 mention", err)
	}
}

// TestRunPortfolioMixedBackends: a 2-member portfolio with one anneal
// and one GA member routes queries across both, and each member is
// bit-identical to the same backend run standalone from the derived
// member seed and the same ladder weights — the dedup rule the serving
// layer relies on. (A weightless K>1 request gets the default weight
// ladder, so the standalone runs name their ladder rung explicitly.)
func TestRunPortfolioMixedBackends(t *testing.T) {
	c, err := Benchmark("circ01")
	if err != nil {
		t.Fatal(err)
	}
	opts := tinyOpts(5)
	res, err := Run(context.Background(), Request{
		Circuit: c, Options: opts, K: 2, MemberBackends: []string{"anneal", "ga"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Portfolio == nil || res.Structure != nil {
		t.Fatalf("portfolio result shape wrong: %+v", res)
	}
	if got := res.Portfolio.K(); got != 2 {
		t.Fatalf("K() = %d, want 2", got)
	}
	if len(res.Stats) != 2 {
		t.Fatalf("len(Stats) = %d, want 2", len(res.Stats))
	}

	for i, backend := range []string{"anneal", "ga"} {
		mopts := opts
		mopts.Seed = PortfolioMemberSeed(opts.Seed, i)
		solo, err := Run(context.Background(), Request{
			Circuit: c, Options: mopts, Backend: backend, Weights: WeightLadder(2)[i],
		})
		if err != nil {
			t.Fatal(err)
		}
		var a, b bytes.Buffer
		if err := solo.Structure.SaveBinary(&a); err != nil {
			t.Fatal(err)
		}
		ms := &Structure{Structure: res.Portfolio.Member(i)}
		if err := ms.SaveBinary(&b); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Errorf("member %d (%s) differs from a standalone run at its derived seed", i, backend)
		}
	}

	rng := rand.New(rand.NewSource(6))
	for q := 0; q < 32; q++ {
		ws, hs := randomDims(c, rng)
		pres, err := res.Portfolio.Instantiate(ws, hs)
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
		Circuit: c, Options: tinyOpts(1), K: 3, MemberBackends: []string{"ga"},
	}); err == nil {
		t.Error("mismatched MemberBackends length accepted")
	}
	if _, err := Run(context.Background(), Request{
		Circuit: c, Options: tinyOpts(1), MemberBackends: []string{"ga"},
	}); err == nil {
		t.Error("MemberBackends on a single-structure request accepted")
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
// weightless K>1 request records the ladder on its members, an explicit
// all-zero MemberWeights opts out, and each ladder member is
// bit-identical to a standalone run naming that rung — so the ladder
// changes which objective members optimize, never how a given
// (seed, weights) generation behaves.
func TestRunWeightLadderDefault(t *testing.T) {
	c, err := Benchmark("circ01")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), Request{Circuit: c, Options: tinyOpts(9), K: 2})
	if err != nil {
		t.Fatal(err)
	}
	ladder := WeightLadder(2)
	got := res.Portfolio.MemberWeights()
	for i := range ladder {
		if got[i] != ladder[i] {
			t.Errorf("member %d weights %+v, want ladder rung %+v", i, got[i], ladder[i])
		}
	}

	optOut, err := Run(context.Background(), Request{
		Circuit: c, Options: tinyOpts(9), K: 2, MemberWeights: make([]Weights, 2),
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range optOut.Portfolio.MemberWeights() {
		if !w.IsZero() {
			t.Errorf("opted-out member %d weights %+v, want zero", i, w)
		}
	}

	// Ladder member 1 == standalone wire-heavy run at the derived seed.
	mopts := tinyOpts(9)
	mopts.Seed = PortfolioMemberSeed(9, 1)
	solo, err := Run(context.Background(), Request{Circuit: c, Options: mopts, Weights: ladder[1]})
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := solo.Structure.SaveBinary(&a); err != nil {
		t.Fatal(err)
	}
	ms := &Structure{Structure: res.Portfolio.Member(1)}
	if err := ms.SaveBinary(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("ladder member 1 differs from a standalone wire-heavy run at its derived seed")
	}
}
