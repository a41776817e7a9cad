package core

import (
	"bufio"
	"encoding/gob"
	"fmt"
	"io"
	"math"

	"mps/internal/geom"
	"mps/internal/netlist"
	"mps/internal/placement"
)

// This file provides persistence for the "generate once, use in every
// synthesis run" workflow (paper Fig. 1): a structure is generated offline
// by cmd/mpsgen, saved, and loaded by the synthesis loop or the mpsd
// structure store.
//
// Three formats exist on disk. Format v2 is the checksummed binary codec
// in codec.go (SaveBinary), the one the program writes; format v1 is the
// legacy gob blob (Save) and format v3 the legacy v2-plus-compiled-tables
// layout (SaveBinaryCompiled). Load sniffs the header and accepts all
// three, funneling them through one trusted validation path
// (buildStructure), so every loaded structure is checked the same way
// regardless of encoding.
//
// Only the live placements are serialized; load re-stores every
// placement into a fresh box table, from which the rows are derived, so a
// loaded structure's rows are consistent with its placements by
// construction.

// fileFormat is the decoded on-disk representation shared by both codecs.
type fileFormat struct {
	Version     int
	CircuitName string
	Floorplan   geom.Rect
	Placements  []savedPlacement
}

type savedPlacement struct {
	X, Y               []int
	WLo, WHi, HLo, HHi []int
	AvgCost, BestCost  float64
	BestW, BestH       []int
}

const formatVersion = 1

// Save writes the structure to w in the legacy gob format (v1). New code
// should prefer SaveBinary; Save remains for compatibility with readers
// that predate the v2 codec.
func (s *Structure) Save(w io.Writer) error {
	ff := fileFormat{
		Version:     formatVersion,
		CircuitName: s.circuit.Name,
		Floorplan:   s.fp,
	}
	for _, p := range s.placements {
		if p == nil {
			continue
		}
		ff.Placements = append(ff.Placements, savedPlacement{
			X: p.X, Y: p.Y,
			WLo: p.WLo, WHi: p.WHi, HLo: p.HLo, HHi: p.HHi,
			AvgCost: p.AvgCost, BestCost: p.BestCost,
			BestW: p.BestW, BestH: p.BestH,
		})
	}
	if err := gob.NewEncoder(w).Encode(ff); err != nil {
		return fmt.Errorf("core: encoding structure: %w", err)
	}
	return nil
}

// Load reads a structure saved by SaveBinary (v2), or by the legacy
// writers Save (gob v1) and SaveBinaryCompiled (v3), sniffing the format
// from the first bytes. The circuit must be the same topology the
// structure was generated for (matched by name and block count).
// Placements are verified pairwise-disjoint while loading, so a corrupted
// file that would violate eq. 5 is rejected rather than silently
// repaired; v2/v3 files additionally fail fast on a checksum mismatch
// before any semantic check runs. A v2 or v1 load does not compile. A v3
// load compiles the loaded structure and accepts the file only if its
// tables equal that index, which then stays cached, so the first Compile
// on the loaded structure is free.
func Load(r io.Reader, c *netlist.Circuit) (*Structure, error) {
	br := bufio.NewReader(r)
	head, err := br.Peek(len(binaryMagic))
	if err == nil && string(head) == binaryMagic {
		data, err := io.ReadAll(br)
		if err != nil {
			return nil, fmt.Errorf("core: reading structure: %w", err)
		}
		ff, tables, err := decodeBinary(data)
		if err != nil {
			return nil, err
		}
		s, err := buildStructure(ff, c)
		if err != nil {
			return nil, err
		}
		if tables > 0 {
			if err := checkTables(s, data[:len(data)-crcLen], tables); err != nil {
				return nil, err
			}
		}
		return s, nil
	}
	// Not a v2 header: treat as gob v1. Short or garbage streams land here
	// too and fail with gob's decode error.
	var ff fileFormat
	if err := gob.NewDecoder(br).Decode(&ff); err != nil {
		return nil, fmt.Errorf("core: decoding structure: %w", err)
	}
	if ff.Version != formatVersion {
		return nil, fmt.Errorf("core: unsupported format version %d", ff.Version)
	}
	return buildStructure(&ff, c)
}

// buildStructure is the single trusted deserialization path: it validates
// the decoded file against the circuit and re-stores every placement,
// whatever codec produced it. A loaded structure satisfies the same
// invariants CheckInvariants verifies: arity and designer bounds (store),
// geometric legality at max dims (CheckLegal), and pairwise-disjoint
// dimension boxes (eq. 5). Box overlap — which only a corrupt or forged
// file can contain — is detected by the conflict scan overlap resolution
// uses, run for each placement before it is stored. That is quadratic in
// placements, but each comparison reads the contiguous box table and
// stops at the first row in which the two boxes are disjoint.
func buildStructure(ff *fileFormat, c *netlist.Circuit) (*Structure, error) {
	if c.Name != ff.CircuitName {
		return nil, fmt.Errorf("core: file is for circuit %q, not %q", ff.CircuitName, c.Name)
	}
	// Bound the floorplan to the compiled index's int32 coordinate space.
	// CheckLegal keeps every anchor inside the floorplan, so this one check
	// makes Compile's int32 narrowing infallible for any loaded structure —
	// a forged file cannot turn the decoder's error contract into a panic.
	for _, v := range [4]int{ff.Floorplan.X0, ff.Floorplan.Y0, ff.Floorplan.X1, ff.Floorplan.Y1} {
		if v < math.MinInt32 || v > math.MaxInt32 {
			return nil, fmt.Errorf("core: floorplan %v exceeds the int32 coordinate range", ff.Floorplan)
		}
	}
	s := NewStructure(c, ff.Floorplan)
	n := c.N()
	for idx, sp := range ff.Placements {
		if len(sp.X) != n || len(sp.Y) != n || len(sp.WLo) != n || len(sp.WHi) != n ||
			len(sp.HLo) != n || len(sp.HHi) != n {
			return nil, fmt.Errorf("core: placement %d has wrong arity for %d blocks", idx, n)
		}
		if (sp.BestW != nil && len(sp.BestW) != n) || (sp.BestH != nil && len(sp.BestH) != n) {
			return nil, fmt.Errorf("core: placement %d has wrong best-dims arity for %d blocks", idx, n)
		}
		p := &placement.Placement{
			ID: -1,
			X:  sp.X, Y: sp.Y,
			WLo: sp.WLo, WHi: sp.WHi, HLo: sp.HLo, HHi: sp.HHi,
			AvgCost: sp.AvgCost, BestCost: sp.BestCost,
			BestW: sp.BestW, BestH: sp.BestH,
		}
		if err := p.CheckLegal(s.fp); err != nil {
			return nil, fmt.Errorf("core: placement %d: %w", idx, err)
		}
		if ids := s.conflicting(p); len(ids) > 0 {
			return nil, fmt.Errorf("core: placements %d and %d in file overlap (corrupt save)", idx, ids[0])
		}
		if _, err := s.store(p); err != nil {
			return nil, fmt.Errorf("core: placement %d: %w", idx, err)
		}
	}
	s.rebaseExps()
	return s, nil
}
