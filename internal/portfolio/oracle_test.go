package portfolio

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"mps/internal/bdio"
	"mps/internal/circuits"
	"mps/internal/core"
	"mps/internal/cost"
	"mps/internal/explorer"
	"mps/internal/template"
)

// This file is the brute-force routing oracle: the paper's query answer
// (eqs. 3–5 per member) and the best-of-K routing rule written out
// naively, with no compiled index, no probe and no shared code path with
// the routing under test.

// oracleAnswer is what a portfolio query must return, plus how many
// members cover it.
type oracleAnswer struct {
	member   int
	res      core.Result
	terms    cost.Terms
	err      error
	covering int
}

// oracleRoute answers one query by definition:
//   - dimension errors and eq. 5 violations come from each member's tree
//     Query, first member first;
//   - each member's covering placement comes from a linear scan over its
//     stored boxes (at most one per member, by eq. 5);
//   - each covering placement is scored by cost.Vector on the layout it
//     instantiates;
//   - the winner minimizes the weighted scalar (0 for the zero vector,
//     which is the legacy area rule), then area, then dead space, then
//     member index;
//   - when no member covers, member 0's tree Instantiate answers.
func oracleRoute(t testing.TB, p *Portfolio, w cost.Weights, ws, hs []int) oracleAnswer {
	t.Helper()
	for m := 0; m < p.K(); m++ {
		if _, err := p.Member(m).Query(ws, hs); err != nil && !errors.Is(err, core.ErrUncovered) {
			return oracleAnswer{member: -1, err: err}
		}
	}
	best := oracleAnswer{member: -1}
	var bestScalar float64
	covering := 0
	for m := 0; m < p.K(); m++ {
		s := p.Member(m)
		ids := s.LookupLinear(ws, hs)
		if len(ids) > 1 {
			t.Fatalf("member %d: %d stored boxes cover %v/%v (eq. 5)", m, len(ids), ws, hs)
		}
		if len(ids) == 0 {
			continue
		}
		covering++
		pl := s.Get(ids[0])
		terms := cost.Vector(&cost.Layout{
			Circuit: p.Circuit(), X: pl.X, Y: pl.Y, W: ws, H: hs, Floorplan: s.Floorplan(),
		})
		var scalar float64
		if !w.IsZero() {
			scalar = w.Scalarize(terms)
		}
		better := best.member < 0
		if !better {
			switch {
			case scalar != bestScalar:
				better = scalar < bestScalar
			case terms.Area != best.terms.Area:
				better = terms.Area < best.terms.Area
			default:
				better = terms.Dead < best.terms.Dead
			}
		}
		if better {
			bestScalar = scalar
			best = oracleAnswer{
				member: m,
				res:    core.Result{X: pl.X, Y: pl.Y, PlacementID: pl.ID},
				terms:  terms,
			}
		}
	}
	if best.member < 0 {
		res, err := p.Member(0).Instantiate(ws, hs)
		return oracleAnswer{member: -1, res: res, err: err}
	}
	best.covering = covering
	return best
}

// oracleWeights are the fixed weight vectors every query cycles through:
// the zero vector, one unit vector per objective and the four ladder rungs.
// A ninth slot draws a random non-negative vector per query.
var oracleWeights = append([]cost.Weights{{}, {Area: 1}, {Wire: 1}, {Aspect: 1}}, cost.WeightLadder(4)...)

func randomWeights(rng *rand.Rand) cost.Weights {
	comp := func() float64 {
		if rng.Intn(3) == 0 {
			return 0
		}
		return rng.Float64() * 2
	}
	return cost.Weights{Wire: comp(), Area: comp(), Aspect: comp()}
}

// Query kinds, drawn in proportion to how much of the routing each one
// exercises.
const (
	queryCovered = iota
	queryCorner
	queryUniform
	queryOutOfBounds
	queryWrongLength
)

// drawQuery returns one query of the given kind: covered queries and box
// corners come from a random member's stored boxes.
func drawQuery(rng *rand.Rand, p *Portfolio, kind int) (ws, hs []int) {
	c := p.Circuit()
	n := c.N()
	ws, hs = make([]int, n), make([]int, n)
	for i, b := range c.Blocks {
		ws[i] = b.WRange().Rand(rng)
		hs[i] = b.HRange().Rand(rng)
	}
	switch kind {
	case queryCovered, queryCorner:
		m := p.Member(rng.Intn(p.K()))
		ids := m.IDs()
		if len(ids) == 0 {
			return ws, hs
		}
		pl := m.Get(ids[rng.Intn(len(ids))])
		pick := func(lo, hi int) int {
			if kind == queryCovered {
				return lo + rng.Intn(hi-lo+1)
			}
			if rng.Intn(2) == 0 {
				return lo
			}
			return hi
		}
		for i := 0; i < n; i++ {
			ws[i] = pick(pl.WLo[i], pl.WHi[i])
			hs[i] = pick(pl.HLo[i], pl.HHi[i])
		}
		if kind == queryCorner && rng.Intn(4) == 0 {
			// Step one coordinate just outside its box edge, staying
			// within the designer bounds.
			i := rng.Intn(n)
			b := c.Blocks[i]
			if rng.Intn(2) == 0 && pl.WHi[i] < b.WMax {
				ws[i] = pl.WHi[i] + 1
			} else if pl.HLo[i] > b.HMin {
				hs[i] = pl.HLo[i] - 1
			}
		}
	case queryOutOfBounds:
		i := rng.Intn(n)
		b := c.Blocks[i]
		switch rng.Intn(4) {
		case 0:
			ws[i] = b.WMin - 1
		case 1:
			ws[i] = b.WMax + 1
		case 2:
			hs[i] = b.HMin - 1
		default:
			hs[i] = b.HMax + 1
		}
	case queryWrongLength:
		if rng.Intn(2) == 0 {
			ws = ws[:n-1]
		} else {
			hs = append(hs, hs[0])
		}
	}
	return ws, hs
}

// drawKind picks a query kind: 40% covered, 20% corners, 25% uniform
// (mostly uncovered), 10% out of bounds, 5% wrong length.
func drawKind(rng *rand.Rand) int {
	switch r := rng.Intn(20); {
	case r < 8:
		return queryCovered
	case r < 12:
		return queryCorner
	case r < 17:
		return queryUniform
	case r < 19:
		return queryOutOfBounds
	}
	return queryWrongLength
}

// checkAgainstOracle compares one query's answers from InstantiateWeightedInto
// (into res, which the caller reuses across queries) and Route with the
// oracle's. It returns how many members cover the query, and a description
// of the first mismatch ("" when everything agrees).
func checkAgainstOracle(t testing.TB, p *Portfolio, res *core.Result, w cost.Weights, ws, hs []int) (covering int, mismatch string) {
	t.Helper()
	want := oracleRoute(t, p, w, ws, hs)
	covering = want.covering
	member, err := p.InstantiateWeightedInto(res, w, ws, hs)
	if fmt.Sprint(err) != fmt.Sprint(want.err) || member != want.member {
		return covering, fmt.Sprintf("InstantiateWeightedInto: member %d, err %v; want member %d, err %v",
			member, err, want.member, want.err)
	}
	if err == nil && (res.PlacementID != want.res.PlacementID || res.FromBackup != want.res.FromBackup ||
		!slices.Equal(res.X, want.res.X) || !slices.Equal(res.Y, want.res.Y)) {
		return covering, fmt.Sprintf("InstantiateWeightedInto: answer %+v; want %+v", *res, want.res)
	}

	rm, rt, err := p.Route(w, ws, hs)
	if fmt.Sprint(err) != fmt.Sprint(want.err) || rm != want.member || rt != want.terms {
		return covering, fmt.Sprintf("Route: member %d, terms %+v, err %v; want member %d, terms %+v, err %v",
			rm, rt, err, want.member, want.terms, want.err)
	}
	return covering, ""
}

// oracleK is the largest portfolio the oracle builds: the serving
// layer's member cap.
const oracleK = 8

// oracleMembers builds the members of a K=oracleK portfolio for every
// registered circuit, the way buildPortfolio builds them. A K-member
// portfolio is the first K of them: MemberSeed makes buildPortfolio's
// members a prefix of each other.
func oracleMembers(t testing.TB, seed int64) map[string][]*core.Structure {
	t.Helper()
	out := map[string][]*core.Structure{}
	for _, name := range circuits.Names() {
		c := circuits.MustByName(name)
		for i := 0; i < oracleK; i++ {
			out[name] = append(out[name], genMember(t, c, seed, i))
		}
	}
	return out
}

// balancedMembers returns oracleK TwoStageOpamp members generated at the
// serving layer's balanced effort (300 explorer iterations, 300 BDIO
// steps), built once per test binary. They hold about 700 to 1200
// placements each, so their masks span 11 to 19 words, and merged
// portfolios of them run past the merged stack mask into the pooled one.
var balancedMembers = sync.OnceValues(func() ([]*core.Structure, error) {
	c := circuits.MustByName("TwoStageOpamp")
	members := make([]*core.Structure, oracleK)
	for i := range members {
		s, _, err := explorer.Generate(c, explorer.Config{
			Seed:          MemberSeed(1, i),
			MaxIterations: 300,
			BDIO:          bdio.Config{Steps: 300},
		})
		if err != nil {
			return nil, fmt.Errorf("generating balanced member %d: %w", i, err)
		}
		s.Compact()
		s.SetBackup(template.Balanced(c))
		members[i] = s
	}
	return members, nil
})

func mustBalancedMembers(t testing.TB) []*core.Structure {
	t.Helper()
	members, err := balancedMembers()
	if err != nil {
		t.Fatal(err)
	}
	return members
}

// oracleLeg checks queries drawn queries at p against the oracle, each
// under a weight vector cycling through zero, unit, ladder and random
// vectors, and returns how many were covered by two or more members. A
// mismatch prints what it takes to replay it.
func oracleLeg(t *testing.T, p *Portfolio, leg string, seed int64, queries int) (multi int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed*1000 + int64(p.K())))
	var res core.Result
	for q := 0; q < queries; q++ {
		w := randomWeights(rng)
		if i := q % (len(oracleWeights) + 1); i < len(oracleWeights) {
			w = oracleWeights[i]
		}
		ws, hs := drawQuery(rng, p, drawKind(rng))
		covering, mismatch := checkAgainstOracle(t, p, &res, w, ws, hs)
		if mismatch != "" {
			t.Fatalf("%s, seed %d, K=%d, query %d, weights %+v, ws %v, hs %v: %s",
				leg, seed, p.K(), q, w, ws, hs, mismatch)
		}
		if covering >= 2 {
			multi++
		}
	}
	t.Logf("%s K=%d: %d/%d queries covered by two or more members", leg, p.K(), multi, queries)
	return multi
}

// TestRoutingOracle checks portfolio routing against the brute-force
// oracle on every registered circuit, K ∈ {1, 2, 3, 8}, over covered, box
// corner, uniform, out-of-bounds and wrong-length queries.
func TestRoutingOracle(t *testing.T) {
	const seed, queries = 11, 600
	members := oracleMembers(t, seed)
	multi := 0
	for _, name := range circuits.Names() {
		for _, k := range []int{1, 2, 3, oracleK} {
			p, err := New(members[name][:k])
			if err != nil {
				t.Fatal(err)
			}
			multi += oracleLeg(t, p, "circuit "+name, seed, queries)
		}
	}
	if multi < 200 {
		t.Fatalf("only %d queries were covered by two or more members, want >= 200: the oracle did not exercise routing", multi)
	}
}

// TestRoutingOracleBalanced runs the oracle on balanced-effort
// TwoStageOpamp members at K ∈ {2, 3, 8}: multi-word masks, member
// segments that end mid-mask, and (at K=8) the pooled merged mask.
func TestRoutingOracleBalanced(t *testing.T) {
	const seed, queries = 13, 3000
	members := mustBalancedMembers(t)
	for i, m := range members {
		t.Logf("balanced member %d: %d placements", i, m.NumPlacements())
	}
	for _, k := range []int{2, 3, oracleK} {
		p, err := New(members[:k])
		if err != nil {
			t.Fatal(err)
		}
		if multi := oracleLeg(t, p, "balanced TwoStageOpamp", seed, queries); multi < 50 {
			t.Fatalf("K=%d: only %d queries were covered by two or more members, want >= 50", k, multi)
		}
	}
}

// FuzzRoutingOracle drives the oracle with fuzzed (member set, K,
// weights, dims). Member sets are one K=8 set per registered circuit plus
// the balanced TwoStageOpamp set; ci picks the set and k the prefix. dims
// selects a query kind in its first byte and supplies the coordinates
// from the rest, read cyclically.
func FuzzRoutingOracle(f *testing.F) {
	const seed = 11
	members := oracleMembers(f, seed)
	names := circuits.Names()
	sets := make([][]*core.Structure, 0, len(names)+1)
	for _, name := range names {
		sets = append(sets, members[name])
	}
	sets = append(sets, mustBalancedMembers(f))
	f.Add(uint8(0), uint8(3), 0.0, 0.0, 0.0, []byte{0, 1, 2, 3})
	f.Add(uint8(3), uint8(2), 1.0, 0.05, 0.0, []byte{1, 7, 200, 9, 4})
	f.Add(uint8(5), uint8(3), 0.5, 0.05, 0.25, []byte{2, 0, 255, 17})
	f.Add(uint8(8), uint8(1), 0.0, 1.0, 0.0, []byte{3, 9})
	f.Add(uint8(1), uint8(3), 0.0, 0.0, 1.0, []byte{4})
	f.Add(uint8(len(names)), uint8(7), 0.5, 0.05, 0.25, []byte{1, 3, 5, 7})
	f.Add(uint8(len(names)), uint8(2), 0.0, 0.0, 0.0, []byte{2, 8, 6})
	f.Fuzz(func(t *testing.T, ci, k uint8, wire, area, aspect float64, dims []byte) {
		set := int(ci) % len(sets)
		p, err := New(sets[set][:1+int(k)%oracleK])
		if err != nil {
			t.Fatal(err)
		}
		w := cost.Weights{Wire: sanitizeWeight(wire), Area: sanitizeWeight(area), Aspect: sanitizeWeight(aspect)}
		ws, hs := fuzzQuery(p, dims)
		var res core.Result
		if _, mismatch := checkAgainstOracle(t, p, &res, w, ws, hs); mismatch != "" {
			t.Fatalf("member set %d (%s), seed %d, K=%d, weights %+v, ws %v, hs %v: %s",
				set, p.Circuit().Name, seed, p.K(), w, ws, hs, mismatch)
		}
	})
}

// sanitizeWeight maps an arbitrary float to a valid weight component:
// finite and non-negative, as the serving layer guarantees.
func sanitizeWeight(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return math.Abs(v)
}

// fuzzQuery decodes a query from fuzz bytes. Kind (dims[0] % 5): uniform
// over the designer range widened by one on each side, a point inside a
// stored box, a stored box corner, an in-range vector with one coordinate
// pushed out of bounds, or a wrong-length vector.
func fuzzQuery(p *Portfolio, dims []byte) (ws, hs []int) {
	c := p.Circuit()
	at := 0
	next := func() int {
		if len(dims) == 0 {
			return 0
		}
		b := int(dims[at%len(dims)])
		at++
		return b
	}
	kind := next() % 5
	n := c.N()
	ws, hs = make([]int, n), make([]int, n)
	span := func(lo, hi int) int { return lo + next()%(hi-lo+1) }
	for i, b := range c.Blocks {
		ws[i] = span(b.WMin-1, b.WMax+1)
		hs[i] = span(b.HMin-1, b.HMax+1)
	}
	switch kind {
	case 1, 2:
		m := p.Member(next() % p.K())
		ids := m.IDs()
		if len(ids) == 0 {
			break
		}
		pl := m.Get(ids[next()%len(ids)])
		for i := 0; i < n; i++ {
			if kind == 1 {
				ws[i], hs[i] = span(pl.WLo[i], pl.WHi[i]), span(pl.HLo[i], pl.HHi[i])
				continue
			}
			ws[i], hs[i] = pl.WLo[i], pl.HLo[i]
			if next()%2 == 1 {
				ws[i] = pl.WHi[i]
			}
			if next()%2 == 1 {
				hs[i] = pl.HHi[i]
			}
		}
	case 3:
		i := next() % n
		ws[i] = c.Blocks[i].WMax + 1 + next()
	case 4:
		ws = ws[:next()%n]
	}
	return ws, hs
}
