package cost

// The weighted objective vector. The paper's cost calculator (§3.2.2) is
// "explicitly customizable"; this file generalizes the scalar
// HPWL + 0.05·area default into per-objective terms — wire length,
// bounding-box area, and aspect-ratio deviation — scalarized by a
// Weights vector. The all-zero (and the explicitly balanced) vector is
// byte-identical to the historical scalar default, which is what lets
// weights thread through every layer above without perturbing a single
// existing structure, spec key, or routing decision.

import (
	"fmt"
	"math"
	"strconv"

	"mps/internal/geom"
)

// Terms is the per-objective cost vector of one layout, all in exact
// integer layout units so cross-member comparisons are deterministic:
//
//	Wire   — weighted total wire length (WireLength)
//	Area   — bounding-box area (UsedArea)
//	Dead   — bounding-box area minus summed block areas (DeadSpace)
//	Aspect — aspect-ratio deviation of the bounding box (AspectDeviation)
type Terms struct {
	Wire   int64 `json:"wire"`
	Area   int64 `json:"area"`
	Dead   int64 `json:"dead"`
	Aspect int64 `json:"aspect"`
}

// AspectDeviation charges a bounding box for being non-square: with
// long/short the larger/smaller side, the charge is long·(long−short) =
// area·(long/short − 1) — the extra area needed to square the box. Zero
// for squares, grows linearly with elongation, and trades in the same
// units as Area so one weight spans both. The target ratio is 1:1, the
// natural choice for the common-centroid-style layouts the benchmarks
// model; orientation does not matter (w and h commute).
func AspectDeviation(w, h int) int64 {
	long, short := int64(w), int64(h)
	if long < short {
		long, short = short, long
	}
	return long * (long - short)
}

// Vector evaluates every objective term of the layout in one pass over
// the blocks (plus the net loop WireLength always did).
func Vector(l *Layout) Terms {
	var bb geom.Rect
	var blocks int64
	for i := range l.Circuit.Blocks {
		r := l.BlockRect(i)
		bb = bb.Union(r)
		blocks += r.Area()
	}
	area := bb.Area()
	return Terms{
		Wire:   WireLength(l),
		Area:   area,
		Dead:   area - blocks,
		Aspect: AspectDeviation(bb.W(), bb.H()),
	}
}

// Weights is the objective weight vector scalarizing Terms. The zero
// value means "the default balanced objective" everywhere weights
// appear — requests, specs, queries — so adding a Weights field to an
// existing struct changes nothing for existing callers.
type Weights struct {
	Wire   float64
	Area   float64
	Aspect float64
}

// The weight ladder: the objective mixes a portfolio spreads its members
// across when the caller asks for diversity but names no weights (see
// WeightLadder). Magnitudes stay near the balanced default because
// annealing acceptance depends on the cost scale, not just its gradient.
var (
	// BalancedWeights is the canonical form of the default objective
	// (DefaultWeights): wire 1, area 0.05, no aspect term. Its cost is
	// bit-identical to the historical scalar HPWL + 0.05·area, pinned by
	// TestWeightsDefaultBitIdentical.
	BalancedWeights = Weights{Wire: 1.0, Area: 0.05}
	// AreaHeavyWeights trades wire for packing density.
	AreaHeavyWeights = Weights{Wire: 0.2, Area: 0.25}
	// WireHeavyWeights nearly ignores area in favor of short nets.
	WireHeavyWeights = Weights{Wire: 1.0, Area: 0.01}
	// AspectHeavyWeights pulls the bounding box toward a square.
	AspectHeavyWeights = Weights{Wire: 0.5, Area: 0.05, Aspect: 0.25}
)

// WeightLadder returns the k member objectives of a weight-diverse
// portfolio: area-heavy, wire-heavy, aspect-heavy, balanced, cycling for
// larger k. The order puts the two strongest contrasts first so even a
// 2-member portfolio gets genuine objective diversity.
func WeightLadder(k int) []Weights {
	rungs := []Weights{AreaHeavyWeights, WireHeavyWeights, AspectHeavyWeights, BalancedWeights}
	out := make([]Weights, k)
	for i := range out {
		out[i] = rungs[i%len(rungs)]
	}
	return out
}

// IsZero reports whether w is the zero vector — the "default objective"
// sentinel.
func (w Weights) IsZero() bool { return w == Weights{} }

// Canonical resolves the zero-vector sentinel to BalancedWeights and
// returns every other vector unchanged.
func (w Weights) Canonical() Weights {
	if w.IsZero() {
		return BalancedWeights
	}
	return w
}

// IsDefault reports whether w means the default balanced objective —
// either the zero sentinel or the explicit balanced vector. Layers that
// key or tag by weights use this to keep default-weight artifacts on
// their historical, suffix-free identities.
func (w Weights) IsDefault() bool { return w.Canonical() == BalancedWeights }

// Validate checks every component is finite and non-negative. The zero
// vector is valid (it is the default sentinel).
func (w Weights) Validate() error {
	for _, c := range [...]struct {
		name string
		v    float64
	}{{"wire", w.Wire}, {"area", w.Area}, {"aspect", w.Aspect}} {
		if math.IsNaN(c.v) || math.IsInf(c.v, 0) || c.v < 0 {
			return fmt.Errorf("cost: %s weight %v invalid: weights must be finite and non-negative", c.name, c.v)
		}
	}
	return nil
}

// Key renders the canonical form as "wire,area,aspect" with shortest
// round-trippable floats — the stable token spec keys and manifest rows
// embed for non-default weights.
func (w Weights) Key() string { return string(w.AppendKey(nil)) }

// AppendKey appends Key's token to b.
func (w Weights) AppendKey(b []byte) []byte {
	w = w.Canonical()
	b = strconv.AppendFloat(b, w.Wire, 'g', -1, 64)
	b = append(b, ',')
	b = strconv.AppendFloat(b, w.Area, 'g', -1, 64)
	b = append(b, ',')
	return strconv.AppendFloat(b, w.Aspect, 'g', -1, 64)
}

// Scalarize collapses a term vector to one comparable cost. The wire and
// area products mirror Cost exactly; the aspect term is added only when
// weighted, so default-weight scalarization stays bit-identical to the
// historical scalar.
func (w Weights) Scalarize(t Terms) float64 {
	w = w.Canonical()
	c := w.Wire*float64(t.Wire) + w.Area*float64(t.Area)
	if w.Aspect != 0 {
		c += w.Aspect * float64(t.Aspect)
	}
	return c
}

// Cost implements Evaluator: the weighted scalarization of the layout's
// term vector. At default weights this computes the historical scalar
// expression, 1.0·wire + 0.05·area, in the same order, so generation under
// the default objective is bit-identical to generation before weights
// existed (pinned by TestWeightsDefaultBitIdentical).
func (w Weights) Cost(l *Layout) float64 {
	w = w.Canonical()
	c := w.Wire*float64(WireLength(l)) + w.Area*float64(UsedArea(l))
	if w.Aspect != 0 {
		bb := boundingBox(l)
		c += w.Aspect * float64(AspectDeviation(bb.W(), bb.H()))
	}
	return c
}

// boundingBox returns the bounding box of all blocks.
func boundingBox(l *Layout) geom.Rect {
	var bb geom.Rect
	for i := range l.Circuit.Blocks {
		bb = bb.Union(l.BlockRect(i))
	}
	return bb
}

// BoundaryDist exposes the pad-stub charge (distToBoundary) for the
// compiled per-objective terms (core.CompiledStructure.Terms), which mirror
// WireLength over the int32 anchor tables without materializing a Layout.
func BoundaryDist(p geom.Point, fp geom.Rect) int { return distToBoundary(p, fp) }
