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
		Placements:  s.saved(),
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
// the decoded file against the circuit and re-stores every placement, as a
// record and a box table entry, whatever codec produced it. A loaded
// structure satisfies the same invariants CheckInvariants verifies: arity
// and designer bounds (checkCandidate), geometric legality at max dims
// (CheckLegal), and pairwise-disjoint dimension boxes (eq. 5). Box overlap
// — which only a corrupt or forged file can contain — is detected by the
// conflict scan overlap resolution uses, run for each placement before it
// is stored. That is quadratic in placements, but each comparison reads
// the contiguous box table and stops at the first row in which the two
// boxes are disjoint.
func buildStructure(ff *fileFormat, c *netlist.Circuit) (*Structure, error) {
	if c.Name != ff.CircuitName {
		return nil, fmt.Errorf("core: file is for circuit %q, not %q", ff.CircuitName, c.Name)
	}
	if err := checkFloorplan(ff.Floorplan); err != nil {
		return nil, err
	}
	s := NewStructure(c, ff.Floorplan)
	// Size the per-ID tables once; the box table grows as it fills.
	n, count := c.N(), len(ff.Placements)
	s.recs, s.terms, s.exps = make([]*record, 0, count), make([]float64, 0, count), make([]float64, 0, count)
	box := make([]int, 0, 4*n)
	for idx, sp := range ff.Placements {
		if len(sp.X) != n || len(sp.Y) != n || len(sp.WLo) != n || len(sp.WHi) != n ||
			len(sp.HLo) != n || len(sp.HHi) != n {
			return nil, fmt.Errorf("core: placement %d has wrong arity for %d blocks", idx, n)
		}
		if (sp.BestW != nil && len(sp.BestW) != n) || (sp.BestH != nil && len(sp.BestH) != n) {
			return nil, fmt.Errorf("core: placement %d has wrong best-dims arity for %d blocks", idx, n)
		}
		// The decoded slices, viewed as a placement for its checks.
		p := placement.Placement{X: sp.X, Y: sp.Y, WLo: sp.WLo, WHi: sp.WHi, HLo: sp.HLo, HHi: sp.HHi}
		if err := p.CheckLegal(s.fp); err != nil {
			return nil, fmt.Errorf("core: placement %d: %w", idx, err)
		}
		if err := s.checkCandidate(&p); err != nil {
			return nil, fmt.Errorf("core: placement %d: %w", idx, err)
		}
		box = appendBox(box[:0], &p)
		if ids := s.conflicting(box); len(ids) > 0 {
			return nil, fmt.Errorf("core: placements %d and %d in file overlap (corrupt save)", idx, ids[0])
		}
		rec := record{X: sp.X, Y: sp.Y, AvgCost: sp.AvgCost, BestCost: sp.BestCost, BestW: sp.BestW, BestH: sp.BestH}
		s.store(&rec, box)
	}
	s.rebaseExps()
	return s, nil
}

// saved returns the live placements as the file formats hold them, in ID
// order: each record's slices, and its box's intervals as the four
// per-block columns WLo, WHi, HLo and HHi, all cut from one array.
func (s *Structure) saved() []savedPlacement {
	out := make([]savedPlacement, 0, s.alive)
	ivs := make([]int, 0, len(s.boxes))
	for id, r := range s.recs {
		if r == nil {
			continue
		}
		sp := savedPlacement{X: r.X, Y: r.Y, AvgCost: r.AvgCost, BestCost: r.BestCost, BestW: r.BestW, BestH: r.BestH}
		box := s.box(id)
		for c, col := range [4]*[]int{&sp.WLo, &sp.WHi, &sp.HLo, &sp.HHi} {
			n := len(ivs)
			for k := c; k < len(box); k += 4 {
				ivs = append(ivs, box[k])
			}
			*col = ivs[n:len(ivs):len(ivs)]
		}
		out = append(out, sp)
	}
	return out
}

// checkFloorplan bounds a floorplan to the compiled index's int32
// coordinate space. CheckLegal keeps every anchor inside the floorplan, so
// this one check makes Compile's int32 narrowing infallible for any loaded
// structure — a forged file cannot turn the decoder's error contract into
// a panic — and CheckInvariants runs it before compiling a hand-built one.
func checkFloorplan(fp geom.Rect) error {
	for _, v := range [4]int{fp.X0, fp.Y0, fp.X1, fp.Y1} {
		if v < math.MinInt32 || v > math.MaxInt32 {
			return fmt.Errorf("core: floorplan %v exceeds the int32 coordinate range", fp)
		}
	}
	return nil
}
