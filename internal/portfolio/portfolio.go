// Package portfolio implements structure portfolios: K independently
// generated multi-placement structures for one circuit, queried as a
// single logical artifact. A lone structure covers only a fraction of the
// (w,h) dimension space and falls back to a template placement everywhere
// else (Badaoui & Vemuri 2005, §3.1.4), so query quality is bimodal —
// near-optimal on covered space, mediocre off it. Members generated with
// different seeds cover different regions; a portfolio merges their
// coverage and, where regions overlap, picks the best placement among the
// covering members (best-of-K candidate selection, after Grus & Hanzálek
// 2024's pick-the-best framing of analog placement).
//
// # Routing rule
//
// New merges the members' compiled indices into one core.MergedIndex, so a
// query runs one dimension check and one eqs. 3–4 walk for all K members
// (MergedIndex.Cover — stored placements only, backups never answer it);
// the first member in member order whose placements violate eq. 5 makes
// the query's error. When exactly one member covers the query it wins
// outright. When two or more do, the winner has the smallest instantiated
// bounding-box area, ties broken by smallest dead space (box area minus
// summed block areas), then by lowest member index so routing is
// deterministic. The winner answers from the slot the walk found
// (CompiledStructure.AnswerInto), with no second walk. Only when no member
// covers the query does the portfolio fall back — to member 0's installed
// backup, exactly the single-structure fallback semantics.
//
// A one-member portfolio — a single structure in portfolio form — has no
// choice to make, so InstantiateWeightedInto answers it with one
// InstantiateInto on member 0's index, under any weights.
//
// # Weighted routing
//
// A query may carry a cost.Weights vector (Route, InstantiateWeighted,
// InstantiateWeightedInto): the winner then minimizes the query's
// weighted scalarized cost over the covering members' per-objective
// terms (CompiledStructure.Terms), ties broken by the area rule above.
// Only members that cover the query are scored, and only when two or more
// do. The zero weight vector never scalarizes: every covering member
// scores 0 and the area rule decides alone, so callers that never weight
// queries are unchanged. Members built via NewWeighted additionally record
// the weights they were generated under (MemberWeights), purely as
// routing-diagnostic metadata.
//
// # Concurrency
//
// A Portfolio is immutable after New and safe for any number of
// concurrent readers: it only reads the members' compiled indices and its
// merged index, which are themselves safe for concurrent queries. Covered
// queries through InstantiateWeightedInto allocate nothing.
package portfolio

import (
	"fmt"
	"math/rand"

	"mps/internal/core"
	"mps/internal/cost"
	"mps/internal/netlist"
)

// MaxMembers bounds K. The coverage win flattens quickly (members overlap
// more as K grows), while the merged index's masks widen with every
// member's placements and each multiply covered query scores every member
// that covers it.
const MaxMembers = 16

// MemberSeed derives member i's generation seed from a portfolio's base
// seed. The stride is a large prime distinct from the explorer's per-chain
// stride (7919), so member streams never collide with chain streams of a
// neighboring seed. Every layer that names portfolio members (facade,
// serving, benchmarks) derives seeds through this one rule, which is what
// lets a member generated for a portfolio be deduplicated against the same
// single-structure spec.
func MemberSeed(seed int64, i int) int64 { return seed + int64(i)*104729 }

// Portfolio holds K compiled member structures for one circuit and routes
// each query to the best covering member.
type Portfolio struct {
	circuit  *netlist.Circuit
	members  []*core.Structure
	compiled []*core.CompiledStructure
	merged   *core.MergedIndex
	// weights records each member's generation objective (zero = the
	// default balanced cost). Metadata only — routing reads query
	// weights, never member weights — but persisted so warm starts can
	// report how a portfolio's members were diversified.
	weights []cost.Weights
}

// Result is one portfolio instantiation: the winning member's placement
// answer plus which member produced it.
type Result struct {
	core.Result
	// Member is the index of the member that answered, or -1 when no
	// member covered the query and the backup answered. PlacementID is
	// member-local: it identifies a placement within Member's structure.
	Member int
}

// New builds a portfolio over the given member structures. Members must be
// fully generated (or loaded) structures for the same circuit; their
// compiled indices and the merged index over them are built here so no
// query ever pays compile cost. The member order is preserved — it is the
// routing tie-break and member 0's backup is the uncovered-space fallback.
func New(members []*core.Structure) (*Portfolio, error) {
	return NewWeighted(members, nil)
}

// NewWeighted is New additionally recording each member's generation
// weights: weights must be empty (no record) or one valid vector per
// member, member i's at index i (the zero vector meaning the default
// balanced objective). The weights do not alter routing — they are the
// metadata MemberWeights reports and the serving layer persists.
func NewWeighted(members []*core.Structure, weights []cost.Weights) (*Portfolio, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("portfolio: no members")
	}
	if len(members) > MaxMembers {
		return nil, fmt.Errorf("portfolio: %d members exceeds the maximum %d", len(members), MaxMembers)
	}
	if len(weights) != 0 && len(weights) != len(members) {
		return nil, fmt.Errorf("portfolio: %d member weights for %d members", len(weights), len(members))
	}
	for i, w := range weights {
		if err := w.Validate(); err != nil {
			return nil, fmt.Errorf("portfolio: member %d weights: %w", i, err)
		}
	}
	for i, m := range members {
		if m == nil {
			return nil, fmt.Errorf("portfolio: member %d is nil", i)
		}
	}
	c := members[0].Circuit()
	p := &Portfolio{
		circuit:  c,
		members:  append([]*core.Structure(nil), members...),
		compiled: make([]*core.CompiledStructure, len(members)),
		weights:  append([]cost.Weights(nil), weights...),
	}
	for i, m := range members {
		if err := sameCircuit(c, m.Circuit()); err != nil {
			return nil, fmt.Errorf("portfolio: member %d: %w", i, err)
		}
		p.compiled[i] = core.Compile(m)
	}
	p.merged = core.Merge(p.compiled)
	return p, nil
}

// sameCircuit checks that two circuit values describe the same topology
// for routing purposes: same name, block count, and designer dimension
// bounds. Members loaded from disk carry distinct *Circuit values for the
// same benchmark, so pointer identity is deliberately not required.
func sameCircuit(a, b *netlist.Circuit) error {
	if a == b {
		return nil
	}
	if a.Name != b.Name || a.N() != b.N() {
		return fmt.Errorf("circuit %q (%d blocks) does not match portfolio circuit %q (%d blocks)",
			b.Name, b.N(), a.Name, a.N())
	}
	for i := range a.Blocks {
		ab, bb := a.Blocks[i], b.Blocks[i]
		if ab.WMin != bb.WMin || ab.WMax != bb.WMax || ab.HMin != bb.HMin || ab.HMax != bb.HMax {
			return fmt.Errorf("block %d designer bounds differ (%v/%v vs %v/%v)",
				i, ab.WRange(), ab.HRange(), bb.WRange(), bb.HRange())
		}
	}
	return nil
}

// K returns the member count.
func (p *Portfolio) K() int { return len(p.members) }

// Circuit returns the topology the portfolio answers for.
func (p *Portfolio) Circuit() *netlist.Circuit { return p.circuit }

// Member returns member i's structure.
func (p *Portfolio) Member(i int) *core.Structure { return p.members[i] }

// Members returns the member structures in routing order. The slice is a
// copy; the structures are shared.
func (p *Portfolio) Members() []*core.Structure {
	return append([]*core.Structure(nil), p.members...)
}

// MemberWeights returns each member's recorded generation weights in
// member order (the zero vector when no record was attached). The slice
// is a copy.
func (p *Portfolio) MemberWeights() []cost.Weights {
	out := make([]cost.Weights, len(p.members))
	copy(out, p.weights)
	return out
}

// NumPlacements returns the total stored placements across members.
func (p *Portfolio) NumPlacements() int {
	total := 0
	for _, m := range p.members {
		total += m.NumPlacements()
	}
	return total
}

// Route returns the member the query routes to under the weight vector w
// (see the package doc's routing rule) and that member's full cost terms —
// the measurement hook for tests, coverage studies and the pareto
// experiments. member is -1, with zero terms, when no member covers the
// query.
func (p *Portfolio) Route(w cost.Weights, ws, hs []int) (member int, t cost.Terms, err error) {
	member, slot, err := p.route(w, ws, hs)
	if member < 0 {
		return -1, cost.Terms{}, err
	}
	return member, p.compiled[member].Terms(slot, ws, hs, true), nil
}

// route walks the merged index once and returns the winner with its slot,
// or member -1 and slot -1 when none covers; Cover's error is returned as
// is. A lone covering member wins unscored. Otherwise the covering members
// are scored in member order: a non-zero w compares scalarized cost
// first, while the zero vector never scalarizes, so every covering member
// scores 0 and the legacy area rule decides alone. Ties go to the smaller
// area, then the smaller dead space, then the lower index. Wire is scored
// only when w.Wire is non-zero: it moves no decision otherwise. Zero
// allocations.
func (p *Portfolio) route(w cost.Weights, ws, hs []int) (member, slot int, err error) {
	var buf [MaxMembers]int
	slots := buf[:len(p.compiled)]
	if err := p.merged.Cover(ws, hs, slots); err != nil {
		return -1, -1, err
	}
	member, slot = -1, -1
	covering := 0
	for m, s := range slots {
		if s >= 0 {
			if covering == 0 {
				member, slot = m, s
			}
			covering++
		}
	}
	if covering < 2 {
		return member, slot, nil
	}
	weighted, wire := !w.IsZero(), w.Wire != 0
	var best float64
	var t cost.Terms
	member = -1
	for m, s := range slots {
		if s < 0 {
			continue
		}
		mt := p.compiled[m].Terms(s, ws, hs, wire)
		var c float64
		if weighted {
			c = w.Scalarize(mt)
		}
		if member < 0 || c < best ||
			(c == best && (mt.Area < t.Area || (mt.Area == t.Area && mt.Dead < t.Dead))) {
			member, slot, best, t = m, s, c, mt
		}
	}
	return member, slot, nil
}

// Instantiate answers a placement request through the best covering
// member under the area rule, falling back to member 0's backup when no
// member covers the dimensions.
func (p *Portfolio) Instantiate(ws, hs []int) (Result, error) {
	return p.InstantiateWeighted(cost.Weights{}, ws, hs)
}

// InstantiateWeighted is Instantiate routed under the weight vector w;
// the zero vector is exactly Instantiate.
func (p *Portfolio) InstantiateWeighted(w cost.Weights, ws, hs []int) (Result, error) {
	var res Result
	m, err := p.InstantiateWeightedInto(&res.Result, w, ws, hs)
	if err != nil {
		return Result{}, err
	}
	res.Member = m
	return res, nil
}

// InstantiateWeightedInto is InstantiateWeighted writing into res, reusing
// res.X and res.Y capacity — the serving hot path: covered queries
// allocate nothing (pinned by the portfolio_route_* micro-benchmarks), and
// backup answers allocate in the backup, as with a single structure. It
// returns the answering member's index, -1 for the backup. The winner
// answers from the slot the merged walk found; when no member covers,
// member 0 answers as a single structure would (its backup, or
// ErrUncovered). A one-member portfolio has nothing to route, so it
// answers with one InstantiateInto on member 0 under any weights. On error
// res is left unspecified.
func (p *Portfolio) InstantiateWeightedInto(res *core.Result, w cost.Weights, ws, hs []int) (member int, err error) {
	if len(p.compiled) == 1 {
		if err := p.compiled[0].InstantiateInto(res, ws, hs); err != nil || res.FromBackup {
			return -1, err
		}
		return 0, nil
	}
	member, slot, err := p.route(w, ws, hs)
	if err != nil {
		return -1, err
	}
	if err := p.compiled[max(member, 0)].AnswerInto(res, slot, ws, hs); err != nil {
		return -1, err
	}
	return member, nil
}

// SampleCoverage estimates covered fractions by Monte-Carlo over uniform
// random dimension vectors: the merged (union) hit rate plus each member's
// individual hit rate, all measured on the same sample stream so they are
// directly comparable — the union can never come out below a member by
// sampling noise alone. Each sample is one merged walk. It is a reporting
// estimator for well-formed members: a member whose placements violate
// eq. 5 at a sample (impossible for generated or loaded structures)
// counts a miss there, while the query path (Route/InstantiateWeightedInto)
// surfaces the same violation as an error.
func (p *Portfolio) SampleCoverage(rng *rand.Rand, samples int) (union float64, member []float64) {
	member = make([]float64, len(p.members))
	if samples <= 0 {
		return 0, member
	}
	n := p.circuit.N()
	ws := make([]int, n)
	hs := make([]int, n)
	hits := 0
	memberHits := make([]int, len(p.members))
	slots := make([]int, len(p.members))
	for k := 0; k < samples; k++ {
		// Interval.Rand, not lo+Intn(len): wide unvalidated designer
		// ranges must sample, not panic (see core.CoverageMonteCarlo).
		for i, b := range p.circuit.Blocks {
			ws[i] = b.WRange().Rand(rng)
			hs[i] = b.HRange().Rand(rng)
		}
		_ = p.merged.Cover(ws, hs, slots) // errors leave their members' slots at -1
		hit := false
		for m, slot := range slots {
			if slot >= 0 {
				memberHits[m]++
				hit = true
			}
		}
		if hit {
			hits++
		}
	}
	for m, h := range memberHits {
		member[m] = float64(h) / float64(samples)
	}
	return float64(hits) / float64(samples), member
}

// CoverageMonteCarlo estimates the merged covered fraction — the
// probability a uniform random query is answered by some member rather
// than the backup.
func (p *Portfolio) CoverageMonteCarlo(rng *rand.Rand, samples int) float64 {
	union, _ := p.SampleCoverage(rng, samples)
	return union
}
