package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"slices"
	"testing"

	"mps"
	"mps/internal/circuits"
	"mps/internal/core"
	"mps/internal/cost"
)

// oracleAnswer is what a query must return by definition.
type oracleAnswer struct {
	member int
	res    core.Result
	err    error
}

// oracleRoute answers one query from each member's reference scan, with
// no compiled index and no routing code in common with the server (the
// rule of internal/portfolio's oracle, written out again because test
// packages cannot share it):
//   - dimension errors come from each member's Query, first member first;
//   - each member's covering placement comes from a linear scan over its
//     stored boxes (at most one per member, by eq. 5);
//   - each covering placement is scored by cost.Vector on the layout it
//     instantiates;
//   - the winner minimizes the weighted scalar (0 for the zero vector,
//     which is the area rule), then area, then dead space, then member
//     index;
//   - when no member covers, member 0's Instantiate answers.
func oracleRoute(t *testing.T, p *mps.Portfolio, w cost.Weights, ws, hs []int) oracleAnswer {
	t.Helper()
	for m := 0; m < p.K(); m++ {
		if _, err := p.Member(m).Query(ws, hs); err != nil && !errors.Is(err, core.ErrUncovered) {
			return oracleAnswer{member: -1, err: err}
		}
	}
	best := oracleAnswer{member: -1}
	var bestScalar float64
	var bestTerms cost.Terms
	for m := 0; m < p.K(); m++ {
		s := p.Member(m)
		ids := s.LookupLinear(ws, hs)
		if len(ids) > 1 {
			t.Fatalf("member %d: %d stored boxes cover %v/%v (eq. 5)", m, len(ids), ws, hs)
		}
		if len(ids) == 0 {
			continue
		}
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
			case terms.Area != bestTerms.Area:
				better = terms.Area < bestTerms.Area
			default:
				better = terms.Dead < bestTerms.Dead
			}
		}
		if better {
			bestScalar, bestTerms = scalar, terms
			best = oracleAnswer{member: m, res: core.Result{X: pl.X, Y: pl.Y, PlacementID: pl.ID}}
		}
	}
	if best.member < 0 {
		res, err := p.Member(0).Instantiate(ws, hs)
		return oracleAnswer{member: -1, res: res, err: err}
	}
	return best
}

// oracleQueries draws the answer oracle's circ01 query mix from rng: for
// each structure, 4 queries inside its stored boxes and both corners of
// the first 2 of those boxes; then 8 queries uniform in the designer
// bounds and one out of bounds.
func oracleQueries(t *testing.T, rng *rand.Rand, structures []*core.Structure) []map[string][]int {
	t.Helper()
	c := circuits.MustByName("circ01")
	var queries []map[string][]int
	for _, st := range structures {
		ids := st.IDs()
		for q := 0; q < 4; q++ {
			p := st.Get(ids[rng.Intn(len(ids))])
			ws, hs := make([]int, c.N()), make([]int, c.N())
			for i := range ws {
				ws[i] = p.WLo[i] + rng.Intn(p.WHi[i]-p.WLo[i]+1)
				hs[i] = p.HLo[i] + rng.Intn(p.HHi[i]-p.HLo[i]+1)
			}
			queries = append(queries, map[string][]int{"ws": ws, "hs": hs})
			if q < 2 {
				// Get returns a fresh copy: its bounds are the box corners.
				queries = append(queries,
					map[string][]int{"ws": p.WLo, "hs": p.HLo},
					map[string][]int{"ws": p.WHi, "hs": p.HHi})
			}
		}
	}
	for q := 0; q < 8; q++ {
		ws, hs := make([]int, c.N()), make([]int, c.N())
		for i, b := range c.Blocks {
			ws[i], hs[i] = b.WRange().Rand(rng), b.HRange().Rand(rng)
		}
		queries = append(queries, map[string][]int{"ws": ws, "hs": hs})
	}
	oob := testQuery(t, 0)
	oob["ws"] = slices.Clone(oob["ws"])
	oob["ws"][0] = c.Blocks[0].WMax + 1
	return append(queries, oob)
}

// fleetOracleSeed seeds the fleet leg's artifacts and queries; a mismatch
// names it.
const fleetOracleSeed = 64

// TestFleetAnswersMatchOracle is the fleet leg of the answer oracle: on a
// 2-node fleet, a single structure and a K=3 weighted portfolio are
// generated through their owners, and /v1/instantiate sent to the
// non-owner — by spec and by bare key, unweighted and under wire-only and
// area-only batch weights — must give, for every query, the placement ID,
// member, backup flag, anchors and error text the reference scan of the
// owner's cached members gives. The queries are box-drawn from every
// member, both corners of stored boxes, uniform in the designer bounds,
// and one out of bounds.
func TestFleetAnswersMatchOracle(t *testing.T) {
	fleet := newTestFleet(t, fleetConfig{n: 2})
	single := testSpec(fleetOracleSeed)
	pf := testSpec(fleetOracleSeed + 1)
	pf.Portfolio = 3
	pf.MemberWeights = []WeightsSpec{{Area: 1}, {Wire: 1}, {Aspect: 1}}

	specs := []GenerateSpec{single, pf}
	keys := make([]string, len(specs))
	owners := make([]int, len(specs))
	portfolios := make([]*mps.Portfolio, len(specs))
	for i, spec := range specs {
		keys[i] = specKey(t, spec)
		owners[i] = fleet.ownerIndex(t, keys[i])
		if code, body := postJSON(t, fleet.nodes[owners[i]].url+"/v1/structures", spec, nil); code != http.StatusOK {
			t.Fatalf("generate %s on its owner: %d %s", keys[i], code, body)
		}
		e, ok := fleet.nodes[owners[i]].s.lookup(keys[i])
		if !ok {
			t.Fatalf("%s is not cached on its owner", keys[i])
		}
		portfolios[i] = e.p
	}

	var structures []*core.Structure
	for _, p := range portfolios {
		for m := 0; m < p.K(); m++ {
			structures = append(structures, p.Member(m))
		}
	}
	queries := oracleQueries(t, rand.New(rand.NewSource(fleetOracleSeed)), structures)

	stored, errored := 0, 0
	for i, spec := range specs {
		entry := fleet.nodes[1-owners[i]].url + "/v1/instantiate"
		for _, address := range []string{"spec", "key"} {
			for _, w := range []cost.Weights{{}, {Wire: 1}, {Area: 1}} {
				req := map[string]any{"queries": queries}
				if address == "spec" {
					req["spec"] = spec
				} else {
					req["key"] = keys[i]
				}
				if !w.IsZero() {
					req["weights"] = WeightsSpec{Wire: w.Wire, Area: w.Area, Aspect: w.Aspect}
				}
				code, body := postJSON(t, entry, req, nil)
				if code != http.StatusOK {
					t.Fatalf("seed %d: %s by %s: %d %s", fleetOracleSeed, keys[i], address, code, body)
				}
				var out struct {
					Results []struct {
						X           []int  `json:"x"`
						Y           []int  `json:"y"`
						PlacementID int    `json:"placement_id"`
						Member      int    `json:"member"`
						FromBackup  bool   `json:"from_backup"`
						Error       string `json:"error"`
					} `json:"results"`
				}
				if err := json.Unmarshal([]byte(body), &out); err != nil || len(out.Results) != len(queries) {
					t.Fatalf("seed %d: %s by %s: %d results (%v) for %d queries", fleetOracleSeed, keys[i], address, len(out.Results), err, len(queries))
				}
				for q, got := range out.Results {
					want := oracleRoute(t, portfolios[i], w, queries[q]["ws"], queries[q]["hs"])
					mismatch := ""
					switch {
					case want.err != nil:
						errored++
						if got.Error != want.err.Error() || got.PlacementID != -1 || got.Member != -1 || got.FromBackup {
							mismatch = fmt.Sprintf("error %q", want.err)
						}
					case got.Error != "" || got.PlacementID != want.res.PlacementID || got.Member != want.member ||
						got.FromBackup != want.res.FromBackup || !slices.Equal(got.X, want.res.X) || !slices.Equal(got.Y, want.res.Y):
						mismatch = fmt.Sprintf("member %d, placement %d (backup %v) at %v/%v",
							want.member, want.res.PlacementID, want.res.FromBackup, want.res.X, want.res.Y)
					case want.member >= 0:
						stored++
					}
					if mismatch != "" {
						t.Errorf("seed %d: %s by %s, weights %+v, query %d: got %+v, want %s",
							fleetOracleSeed, keys[i], address, w, q, got, mismatch)
					}
				}
			}
		}
	}
	if stored == 0 || errored == 0 {
		t.Fatalf("seed %d: %d stored answers and %d errors; the queries must reach both", fleetOracleSeed, stored, errored)
	}
}
