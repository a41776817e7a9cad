package mps

// This file is the facade over internal/portfolio: structure portfolios —
// K independently generated multi-placement structures for one circuit,
// queried as one artifact. A single structure covers a fraction of the
// (w,h) dimension space and answers the rest from a template backup;
// members generated from different seeds cover different regions, so a
// portfolio raises the covered fraction, and where members overlap the
// query routes to the member whose placement instantiates with the
// smallest bounding-box area (ties: least dead space, then lowest member
// index), or, for a query that carries weights, with the smallest cost
// under those weights. Only queries no member covers fall back to the
// backup. A portfolio is its members: what objective or seed made each
// one is the generator's business (Request), not the portfolio's.

import (
	"fmt"

	"mps/internal/core"
	"mps/internal/portfolio"
)

// Portfolio is a best-of-K routed set of structures for one circuit.
// Like a Structure it is immutable after construction and safe for any
// number of concurrent readers; covered routed queries allocate nothing.
type Portfolio struct {
	*portfolio.Portfolio
}

// MaxPortfolioMembers re-exports the K bound.
const MaxPortfolioMembers = portfolio.MaxMembers

// PortfolioMemberSeed derives member i's generation seed from a base
// seed. Every layer that names portfolio members (this facade, the mpsd
// daemon's portfolio specs, the benchmarks) uses this one rule, so a
// member generated for a portfolio is bit-identical to — and deduplicates
// against — the single structure generated from the same derived seed.
func PortfolioMemberSeed(seed int64, i int) int64 { return portfolio.MemberSeed(seed, i) }

// SaveFiles writes each member to its path (v2 binary, atomically, as
// SaveFile writes it), member i to paths[i] — the file layout LoadPortfolio
// reads back. Member order is part of the portfolio's semantics (routing
// tie-break, backup fallback), so keep the path order stable.
func (p *Portfolio) SaveFiles(paths []string) error {
	if len(paths) != p.K() {
		return fmt.Errorf("mps: %d paths for a %d-member portfolio", len(paths), p.K())
	}
	for i, path := range paths {
		s := &Structure{Structure: p.Member(i)}
		if err := s.SaveFile(path); err != nil {
			return fmt.Errorf("mps: saving member %d: %w", i, err)
		}
	}
	return nil
}

// LoadPortfolio reads a portfolio previously saved member-by-member (any
// structure file format, sniffed per file) and re-installs the default
// template backup on every member. Path order defines member order.
func LoadPortfolio(paths []string, c *Circuit) (*Portfolio, error) {
	if len(paths) == 0 {
		return nil, fmt.Errorf("mps: no member paths")
	}
	members := make([]*Structure, len(paths))
	for i, path := range paths {
		m, err := LoadFile(path, c)
		if err != nil {
			return nil, fmt.Errorf("mps: loading member %d: %w", i, err)
		}
		members[i] = m
	}
	return NewPortfolio(members)
}

// NewPortfolio assembles a portfolio from already-built structures, in
// member order; it is the one constructor (Run, LoadPortfolio and the
// serving layer's fan-in all end here). A portfolio holds its members and
// nothing else: how each was generated never enters routing, which
// follows the query's weights.
func NewPortfolio(members []*Structure) (*Portfolio, error) {
	inner := make([]*core.Structure, len(members))
	for i, m := range members {
		if m == nil {
			return nil, fmt.Errorf("mps: portfolio member %d is nil", i)
		}
		inner[i] = m.Structure
	}
	p, err := portfolio.New(inner)
	if err != nil {
		return nil, fmt.Errorf("mps: %w", err)
	}
	return &Portfolio{p}, nil
}
