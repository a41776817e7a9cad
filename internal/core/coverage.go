package core

import (
	"math"
	"math/rand"

	"mps/internal/placement"
)

// This file implements the coverage metrics of §3.1.4: the Placement
// Explorer's stopping criterion is "a value representing the percentage
// coverage of the widths and heights ranges space". Because stored boxes
// are pairwise disjoint (resolve.go), the exact covered fraction is the sum
// of per-placement volume fractions; a Monte-Carlo hit-rate estimator is
// provided as a cross-check and for tests.

// Coverage returns the exact fraction of the (w,h) dimension space covered
// by stored placements, in [0, 1]. For high-dimensional circuits the value
// is extremely small (each placement's share is a product of 2N per-row
// fractions); callers wanting a human-readable
// growth signal can use CoverageLog2 or Monte-Carlo hit rates.
//
// The per-placement fraction is accumulated in log2 space rather than as a
// running product of per-node fractions: interval lengths are taken as
// float64 differences (immune to the int overflow Interval.Len hits when a
// designer range approaches MaxInt, which used to flip fractions negative
// and silently corrupt the TargetCoverage stop condition), and a product of
// hundreds of sub-1 factors cannot underflow to zero mid-way on large
// circuits. See TestCoverageWideRangeNoOverflow.
//
// The per-placement terms and their exponentials are cached (see
// coverageTerm and rebaseExps). Once generation's last mutation has
// rebased the exponentials, the explorer's per-iteration Progress report
// and TargetCoverage stop check cost two Exp2 calls, one Log2 and two
// passes of comparisons and additions. Coverage never writes: a stale
// cache is computed around, not repaired.
func (s *Structure) Coverage() float64 {
	// log-sum-exp over per-placement log2 volume fractions, the same
	// pattern as CoverageLog2 — two passes over the placements (max, then
	// sum) in ID order, allocating nothing.
	maxLg := s.largestTerm()
	if math.IsInf(maxLg, -1) {
		return 0 // no placements, or only empty boxes (unreachable once stored)
	}
	sum := 0.0
	if s.expsValid && s.expBase == maxLg {
		// exps[id] is Exp2(terms[id] - maxLg) bit for bit; a -Inf term's
		// is 0, which leaves the sum as skipping it does.
		for id, p := range s.placements {
			if p != nil {
				sum += s.exps[id]
			}
		}
	} else {
		for id, p := range s.placements {
			if p == nil {
				continue
			}
			if lg := s.terms[id]; !math.IsInf(lg, -1) {
				sum += math.Exp2(lg - maxLg)
			}
		}
	}
	return math.Exp2(maxLg + math.Log2(sum))
}

// coverageTerm returns p's log2 volume fraction of the designer space,
// the summand Coverage combines. store and shrinkRow cache it in s.terms
// whenever they set a placement's box, and Renumber moves it with its
// placement, so s.terms[id] always equals coverageTerm(s.placements[id])
// bit for bit (CheckInvariants verifies this). The designer-range Log2
// values come from s.rangeLg, the same operands computed once.
func (s *Structure) coverageTerm(p *placement.Placement) float64 {
	lg := 0.0
	for i := range p.X {
		lg += math.Log2(p.WIv(i).LenFloat()) - s.rangeLg[2*i]
		lg += math.Log2(p.HIv(i).LenFloat()) - s.rangeLg[2*i+1]
	}
	return lg
}

// setExp caches ID id's exponential after its term became lg, or marks
// the cache stale when lg exceeds the base.
func (s *Structure) setExp(id int, lg float64) {
	if !s.expsValid {
		return
	}
	if lg > s.expBase {
		s.expsValid = false
		return
	}
	s.exps[id] = math.Exp2(lg - s.expBase)
}

// largestTerm returns the largest live coverage term in ID order, -Inf
// when no placement is live.
func (s *Structure) largestTerm() float64 {
	maxLg := math.Inf(-1)
	for id, p := range s.placements {
		if p != nil && s.terms[id] > maxLg {
			maxLg = s.terms[id]
		}
	}
	return maxLg
}

// rebaseExps recomputes a stale exponential cache: the base becomes the
// largest live term, and every live entry its term's exponential against
// that base.
func (s *Structure) rebaseExps() {
	if s.expsValid {
		return
	}
	base := s.largestTerm()
	for id, p := range s.placements {
		if p != nil {
			s.exps[id] = math.Exp2(s.terms[id] - base)
		}
	}
	s.expBase, s.expsValid = base, true
}

// CoverageLog2 returns log2 of the total covered volume in dimension-vector
// counts (not a fraction): log2(Σ_j vol(box_j)). Returns -Inf for an empty
// structure. This grows monotonically during generation and does not
// underflow for large circuits.
func (s *Structure) CoverageLog2() float64 {
	// log-sum-exp over per-placement log2 volumes.
	maxLg := math.Inf(-1)
	lgs := make([]float64, 0, s.alive)
	for _, p := range s.placements {
		if p == nil {
			continue
		}
		lg := p.Log2BoxVolume()
		lgs = append(lgs, lg)
		if lg > maxLg {
			maxLg = lg
		}
	}
	if len(lgs) == 0 {
		return math.Inf(-1)
	}
	sum := 0.0
	for _, lg := range lgs {
		sum += math.Exp2(lg - maxLg)
	}
	return maxLg + math.Log2(sum)
}

// CoverageMonteCarlo estimates the covered fraction by sampling uniform
// random dimension vectors and reporting the hit rate. It cross-checks
// Coverage and doubles as a query fuzzer in tests. Dimensions draw via
// Interval.Rand, so designer ranges wide enough to overflow hi-lo+1 — the
// same unvalidated-circuit regime the log2-space Coverage guards — sample
// instead of panicking in rand.Intn.
func (s *Structure) CoverageMonteCarlo(rng *rand.Rand, samples int) float64 {
	if samples <= 0 {
		return 0
	}
	n := s.circuit.N()
	ws := make([]int, n)
	hs := make([]int, n)
	hits := 0
	for k := 0; k < samples; k++ {
		for i, b := range s.circuit.Blocks {
			ws[i] = b.WRange().Rand(rng)
			hs[i] = b.HRange().Rand(rng)
		}
		if _, count := s.lookupUnique(ws, hs); count > 0 {
			hits++
		}
	}
	return float64(hits) / float64(samples)
}
