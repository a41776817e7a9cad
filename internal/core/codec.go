package core

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

// This file implements the format-v2 binary codec for multi-placement
// structures. Layout (all integers varint-encoded unless noted):
//
//	"MPSB"                      4-byte magic
//	version                     uvarint, currently 2
//	circuit name                uvarint length + bytes
//	floorplan                   4 varints (X0, Y0, X1, Y1)
//	block count N               uvarint
//	placement count P           uvarint
//	P placement records:
//	  X, Y                      N varints each (zigzag)
//	  per block: WLo varint, WHi-WLo uvarint
//	  per block: HLo varint, HHi-HLo uvarint
//	  AvgCost, BestCost         8-byte little-endian float64 bits each
//	  BestW, BestH              presence byte (0/1) + N varints when present
//	CRC-32C                     4-byte little-endian, over everything above
//
// The trailing checksum means truncation and bit corruption are rejected
// up front, before the per-placement semantic checks in buildStructure
// run. Varint packing makes v2 files smaller than the gob v1 encoding
// (which spends bytes on reflected type metadata and field headers) and
// decoding is a single allocation-light pass instead of gob's reflection
// walk.
//
// Format v3 is the v2 layout under version 3 with the compiled query
// index's row tables appended before the CRC (appendTables). Load reads it
// as a legacy format, as it reads gob v1: the tables can be trusted only
// by compiling the rebuilt rows and comparing, which costs more than
// compiling alone, so the program writes v2.

const (
	// binaryMagic introduces a v2/v3 file; Load sniffs it to pick the codec.
	binaryMagic = "MPSB"
	// binaryVersion is written after the magic and checked on load.
	binaryVersion = 2
	// binaryVersionCompiled marks a legacy v3 file, which additionally
	// carries the compiled query index's row tables after the placement
	// records (see SaveBinaryCompiled); the placement section is
	// byte-identical to v2.
	binaryVersionCompiled = 3
	// crcLen is the size of the trailing CRC-32C.
	crcLen = 4
	// maxIntervalLen bounds a decoded interval delta; anything larger is
	// corruption (designer dimension ranges are far below this).
	maxIntervalLen = 1 << 31
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// SaveBinary writes the structure to w in the v2 binary format. The whole
// payload is assembled in memory (structures are kilobytes to low
// megabytes) so the trailing checksum covers exactly the bytes written.
// A floorplan Load would refuse (see checkFloorplan) is refused with
// Load's error before any byte is written.
func (s *Structure) SaveBinary(w io.Writer) error {
	if err := checkFloorplan(s.fp); err != nil {
		return err
	}
	if _, err := w.Write(appendCRC(s.appendBinary(nil))); err != nil {
		return fmt.Errorf("core: writing structure: %w", err)
	}
	return nil
}

// SaveBinaryCompiled writes the structure in the legacy v3 binary format:
// the v2 placement payload plus the compiled query index's row tables.
// The program writes v2 (SaveBinary); this writer stays, as Save stays for
// gob v1, to produce the legacy files the reader's tests and the golden
// generation table use. It refuses what SaveBinary refuses.
func (s *Structure) SaveBinaryCompiled(w io.Writer) error {
	if err := checkFloorplan(s.fp); err != nil {
		return err
	}
	b := s.appendBinaryVersion(nil, binaryVersionCompiled)
	b = Compile(s).appendTables(b)
	if _, err := w.Write(appendCRC(b)); err != nil {
		return fmt.Errorf("core: writing structure: %w", err)
	}
	return nil
}

// appendCRC seals a v2/v3 payload with its trailing checksum.
func appendCRC(payload []byte) []byte {
	return binary.LittleEndian.AppendUint32(payload, crc32.Checksum(payload, castagnoli))
}

// appendBinary appends the v2 payload (everything but the CRC) to b.
func (s *Structure) appendBinary(b []byte) []byte {
	return s.appendBinaryVersion(b, binaryVersion)
}

// appendBinaryVersion appends the placement payload under the given format
// version; v3 callers append the compiled tables afterwards.
func (s *Structure) appendBinaryVersion(b []byte, version uint64) []byte {
	b = append(b, binaryMagic...)
	b = binary.AppendUvarint(b, version)
	b = binary.AppendUvarint(b, uint64(len(s.circuit.Name)))
	b = append(b, s.circuit.Name...)
	for _, v := range [4]int{s.fp.X0, s.fp.Y0, s.fp.X1, s.fp.Y1} {
		b = binary.AppendVarint(b, int64(v))
	}
	n := s.circuit.N()
	b = binary.AppendUvarint(b, uint64(n))
	b = binary.AppendUvarint(b, uint64(s.alive))
	for id, r := range s.recs {
		if r == nil {
			continue
		}
		box := s.box(id)
		b = appendInts(b, r.X)
		b = appendInts(b, r.Y)
		for _, off := range [2]int{0, 2} { // widths, then heights
			for i := 0; i < n; i++ {
				lo, hi := box[4*i+off], box[4*i+off+1]
				b = binary.AppendVarint(b, int64(lo))
				b = binary.AppendUvarint(b, uint64(hi-lo))
			}
		}
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(r.AvgCost))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(r.BestCost))
		b = appendOptionalInts(b, r.BestW)
		b = appendOptionalInts(b, r.BestH)
	}
	return b
}

func appendInts(b []byte, vs []int) []byte {
	for _, v := range vs {
		b = binary.AppendVarint(b, int64(v))
	}
	return b
}

func appendOptionalInts(b []byte, vs []int) []byte {
	if vs == nil {
		return append(b, 0)
	}
	return appendInts(append(b, 1), vs)
}

// appendTables appends the compiled section of a v3 file: span counts per
// row, breakpoints, id counts per span, then the id (slot) values, all
// varint-packed. The on-disk form is id *lists* (stable and
// word-size-independent), materialized from the in-memory bitsets; dense
// slots are exactly the IDs placements get when the file is loaded back.
func (cs *CompiledStructure) appendTables(b []byte) []byte {
	counts := make([]int, len(cs.spanLo))
	var all []int32
	for s := range cs.spanLo {
		before := len(all)
		all = cs.spanSlots(s, all)
		counts[s] = len(all) - before
	}
	b = binary.AppendUvarint(b, uint64(len(cs.spanLo)))
	b = binary.AppendUvarint(b, uint64(len(all)))
	for r := 0; r+1 < len(cs.rowStart); r++ {
		b = binary.AppendUvarint(b, uint64(cs.rowStart[r+1]-cs.rowStart[r]))
	}
	for s := range cs.spanLo {
		b = binary.AppendVarint(b, int64(cs.spanLo[s]))
		b = binary.AppendUvarint(b, uint64(cs.spanHi[s]-cs.spanLo[s]))
	}
	for _, c := range counts {
		b = binary.AppendUvarint(b, uint64(c))
	}
	for _, slot := range all {
		b = binary.AppendUvarint(b, uint64(slot))
	}
	return b
}

// matchSection reads a v3 file's compiled section from r, in the order
// appendTables writes it, and reports whether it holds exactly cs's row
// tables. Every decoded count, breakpoint and slot is compared with the
// index as it is read, so none sizes an allocation or indexes a table; a
// short or malformed section sets r.err.
func (cs *CompiledStructure) matchSection(r *binReader) bool {
	spans := r.uvarint("span count")
	ids := r.uvarint("id count")
	if spans != uint64(len(cs.spanLo)) {
		return false
	}
	for row := 0; row+1 < len(cs.rowStart); row++ {
		if r.uvarint("row span count") != uint64(cs.rowStart[row+1]-cs.rowStart[row]) {
			return false
		}
	}
	for s := range cs.spanLo {
		if r.varint("span breakpoint") != int(cs.spanLo[s]) ||
			r.uvarint("span breakpoint") != uint64(cs.spanHi[s]-cs.spanLo[s]) {
			return false
		}
	}
	var slots []int32
	total := 0
	for s := range cs.spanLo {
		slots = cs.spanSlots(s, slots[:0])
		if r.uvarint("span id count") != uint64(len(slots)) {
			return false
		}
		total += len(slots)
	}
	if ids != uint64(total) {
		return false
	}
	for s := range cs.spanLo {
		slots = cs.spanSlots(s, slots[:0])
		for _, slot := range slots {
			if r.uvarint("placement slot") != uint64(slot) {
				return false
			}
		}
	}
	return r.err == nil
}

// checkTables reads a v3 file's compiled section, which starts at byte
// off of the checksummed payload, against the index compiled from s, the
// structure Load just rebuilt from the file's placement records. It
// rejects a file whose tables differ from that index: its tables and its
// placement records could otherwise disagree. On success the index stays cached on
// s, as for any Compile.
func checkTables(s *Structure, payload []byte, off int) error {
	r := &binReader{data: payload, off: off}
	match := Compile(s).matchSection(r)
	switch {
	case r.err != nil:
		return r.err
	case !match:
		return fmt.Errorf("core: v3 compiled tables disagree with the placement records (corrupt save)")
	case r.off != len(r.data):
		return fmt.Errorf("core: %d trailing bytes after v2 payload", len(r.data)-r.off)
	}
	return nil
}

// decodeBinary parses a complete v2/v3 file (magic through CRC) into the
// shared fileFormat. For a v3 file it also returns the offset of the
// compiled section, for checkTables once the structure is built; 0 means
// a v2 file. The checksum is verified first, so every later decode error
// indicates a bug or a forged length field rather than line noise.
func decodeBinary(data []byte) (ff *fileFormat, tables int, err error) {
	if len(data) < len(binaryMagic)+1+crcLen {
		return nil, 0, fmt.Errorf("core: v2 file truncated (%d bytes)", len(data))
	}
	payload := data[:len(data)-crcLen]
	want := binary.LittleEndian.Uint32(data[len(data)-crcLen:])
	if got := crc32.Checksum(payload, castagnoli); got != want {
		return nil, 0, fmt.Errorf("core: v2 checksum mismatch (file truncated or corrupt)")
	}
	r := &binReader{data: payload, off: len(binaryMagic)} // magic already matched by the sniffer
	version := r.uvarint("version")
	if r.err == nil && version != binaryVersion && version != binaryVersionCompiled {
		return nil, 0, fmt.Errorf("core: unsupported binary format version %d", version)
	}
	ff = &fileFormat{Version: formatVersion}
	ff.CircuitName = string(r.bytes(int(r.uvarint("name length")), "circuit name"))
	ff.Floorplan.X0 = r.varint("floorplan")
	ff.Floorplan.Y0 = r.varint("floorplan")
	ff.Floorplan.X1 = r.varint("floorplan")
	ff.Floorplan.Y1 = r.varint("floorplan")
	n := int(r.uvarint("block count"))
	count := int(r.uvarint("placement count"))
	if r.err != nil {
		return nil, 0, r.err
	}
	// A placement record is at least 6 varints per block plus two floats
	// and two presence bytes; reject forged counts before allocating. The
	// bound is computed by division in uint64 so a crafted (count, n) pair
	// cannot overflow it past the check.
	rest := len(payload) - r.off
	if n < 0 || n > rest || count < 0 || count > rest ||
		(count > 0 && uint64(count) > uint64(rest)/(6*uint64(n)+18)) {
		return nil, 0, fmt.Errorf("core: v2 header claims %d placements of %d blocks, only %d payload bytes",
			count, n, rest)
	}
	ff.Placements = make([]savedPlacement, count)
	for j := range ff.Placements {
		sp := &ff.Placements[j]
		sp.X = r.ints(n, "x")
		sp.Y = r.ints(n, "y")
		sp.WLo, sp.WHi = r.intervals(n, "width interval")
		sp.HLo, sp.HHi = r.intervals(n, "height interval")
		sp.AvgCost = r.float64("avg cost")
		sp.BestCost = r.float64("best cost")
		sp.BestW = r.optionalInts(n, "best widths")
		sp.BestH = r.optionalInts(n, "best heights")
		if r.err != nil {
			return nil, 0, fmt.Errorf("core: placement %d: %w", j, r.err)
		}
	}
	if version == binaryVersionCompiled {
		return ff, r.off, nil
	}
	if r.off != len(payload) {
		return nil, 0, fmt.Errorf("core: %d trailing bytes after v2 payload", len(payload)-r.off)
	}
	return ff, 0, nil
}

// binReader decodes the v2 payload sequentially. Methods become no-ops
// after the first error; callers check err once per record.
type binReader struct {
	data []byte
	off  int
	err  error
}

func (r *binReader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("core: v2 payload corrupt at byte %d (%s)", r.off, what)
	}
}

func (r *binReader) uvarint(what string) uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.data[r.off:])
	if n <= 0 {
		r.fail(what)
		return 0
	}
	r.off += n
	return v
}

func (r *binReader) varint(what string) int {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.data[r.off:])
	if n <= 0 {
		r.fail(what)
		return 0
	}
	r.off += n
	return int(v)
}

func (r *binReader) bytes(n int, what string) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > len(r.data)-r.off {
		r.fail(what)
		return nil
	}
	out := r.data[r.off : r.off+n]
	r.off += n
	return out
}

func (r *binReader) float64(what string) float64 {
	b := r.bytes(8, what)
	if r.err != nil {
		return 0
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b))
}

func (r *binReader) ints(n int, what string) []int {
	if r.err != nil || n > len(r.data)-r.off { // each varint is >= 1 byte
		r.fail(what)
		return nil
	}
	out := make([]int, n)
	for i := range out {
		out[i] = r.varint(what)
	}
	return out
}

// intervals reads n (lo, hi-lo) pairs into parallel lo/hi slices.
func (r *binReader) intervals(n int, what string) (lo, hi []int) {
	if r.err != nil || 2*n > len(r.data)-r.off {
		r.fail(what)
		return nil, nil
	}
	lo = make([]int, n)
	hi = make([]int, n)
	for i := range lo {
		lo[i] = r.varint(what)
		d := r.uvarint(what)
		if d > maxIntervalLen {
			r.fail(what + " delta")
			return nil, nil
		}
		hi[i] = lo[i] + int(d)
	}
	return lo, hi
}

func (r *binReader) optionalInts(n int, what string) []int {
	flag := r.bytes(1, what)
	if r.err != nil {
		return nil
	}
	switch flag[0] {
	case 0:
		return nil
	case 1:
		return r.ints(n, what)
	default:
		r.fail(what + " presence flag")
		return nil
	}
}
