// Package seqpair implements the sequence-pair floorplan representation
// (Murata et al.), the standard encoding used by modern analog placers for
// guaranteed-legal packings: a pair of block permutations (Γ+, Γ-) encodes,
// for every block pair, a left-of or below relation, and positions follow
// from longest-path computations.
//
// In this repository sequence pairs serve two roles: the genotype the GA
// generation backend recombines (internal/gen), and a compacting
// alternative to the slicing-tree template as the multi-placement
// structure's uncovered-space backup (paper §3.1.4's "template-like
// placement"; longest-path packing gives tighter layouts than a balanced
// tree).
package seqpair

import (
	"fmt"
	"math/rand"

	"mps/internal/netlist"
)

// SeqPair is a sequence-pair over n blocks: two permutations of 0..n-1.
// Block a is left of block b iff a precedes b in both sequences; a is below
// b iff a follows b in Plus but precedes b in Minus.
type SeqPair struct {
	Plus, Minus []int
}

// New returns the identity sequence pair (all blocks in a row).
func New(n int) SeqPair {
	sp := SeqPair{Plus: make([]int, n), Minus: make([]int, n)}
	for i := 0; i < n; i++ {
		sp.Plus[i] = i
		sp.Minus[i] = i
	}
	return sp
}

// Random returns a uniformly random sequence pair.
func Random(n int, rng *rand.Rand) SeqPair {
	return SeqPair{Plus: rng.Perm(n), Minus: rng.Perm(n)}
}

// Validate checks both sequences are permutations of the same length.
func (sp SeqPair) Validate() error {
	n := len(sp.Plus)
	if len(sp.Minus) != n {
		return fmt.Errorf("seqpair: sequences sized %d/%d", n, len(sp.Minus))
	}
	for _, seq := range [][]int{sp.Plus, sp.Minus} {
		seen := make([]bool, n)
		for _, v := range seq {
			if v < 0 || v >= n || seen[v] {
				return fmt.Errorf("seqpair: sequence %v is not a permutation", seq)
			}
			seen[v] = true
		}
	}
	return nil
}

// Positions computes the packed bottom-left anchors for blocks of the given
// dimensions, with gap units of spacing added between adjacent blocks.
// The layout is legal by construction: x via longest paths in the
// "left-of" relation, y via longest paths in the "below" relation.
func (sp SeqPair) Positions(ws, hs []int, gap int) (x, y []int, err error) {
	n := len(sp.Plus)
	if err := sp.Validate(); err != nil {
		return nil, nil, err
	}
	if len(ws) != n || len(hs) != n {
		return nil, nil, fmt.Errorf("seqpair: dims sized %d/%d, want %d", len(ws), len(hs), n)
	}
	if gap < 0 {
		gap = 0
	}
	// posPlus[b] / posMinus[b]: index of block b in each sequence.
	posPlus := make([]int, n)
	posMinus := make([]int, n)
	for i, b := range sp.Plus {
		posPlus[b] = i
	}
	for i, b := range sp.Minus {
		posMinus[b] = i
	}

	// x: process blocks in Minus order; a is left of b iff it precedes b in
	// both sequences, so scanning Minus and maximizing over already-placed
	// blocks with smaller Plus index yields the longest path.
	x = make([]int, n)
	for _, b := range sp.Minus {
		best := 0
		for _, a := range sp.Minus[:posMinus[b]] {
			if posPlus[a] < posPlus[b] { // a left of b
				if end := x[a] + ws[a] + gap; end > best {
					best = end
				}
			}
		}
		x[b] = best
	}
	// y: a is below b iff a follows b in Plus and precedes b in Minus.
	y = make([]int, n)
	for _, b := range sp.Minus {
		best := 0
		for _, a := range sp.Minus[:posMinus[b]] {
			if posPlus[a] > posPlus[b] { // a below b
				if end := y[a] + hs[a] + gap; end > best {
					best = end
				}
			}
		}
		y[b] = best
	}
	return x, y, nil
}

// Backup adapts a fixed sequence pair to the core.Backup / synth.Provider
// shape: a deterministic packed instantiation for any dimensions, like a
// template but with longest-path compaction.
type Backup struct {
	Circuit *netlist.Circuit
	Pair    SeqPair
	// Gap defaults to the circuit's largest margin when zero.
	Gap int
}

// NewBackup returns a Backup with a deterministic (identity) sequence pair
// and margin-derived gap.
func NewBackup(c *netlist.Circuit) *Backup {
	gap := 1
	for _, b := range c.Blocks {
		if b.Margin > gap {
			gap = b.Margin
		}
	}
	return &Backup{Circuit: c, Pair: New(c.N()), Gap: gap}
}

// Place implements the backup interface.
func (bk *Backup) Place(ws, hs []int) (x, y []int, err error) {
	return bk.Pair.Positions(ws, hs, bk.Gap)
}
