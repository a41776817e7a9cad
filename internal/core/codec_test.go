package core

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"mps/internal/circuits"
	"mps/internal/geom"
	"mps/internal/netlist"
)

// codecStructure builds a deterministic structure with count placements on
// a 4-block circuit with wide designer bounds — enough volume that the
// placements stay box-disjoint without Insert having to shrink them.
func codecStructure(t testing.TB, count int) (*Structure, *netlist.Circuit) {
	t.Helper()
	b := netlist.NewBuilder("codec")
	for _, n := range []string{"a", "b", "c", "d"} {
		b.Block(n, 1, 4*count+48, 1, 40)
	}
	b.Net("n0", 1, netlist.P("a"), netlist.P("b"))
	b.Net("n1", 1, netlist.P("c"), netlist.P("d"))
	c := b.MustBuild()
	fp := geom.NewRect(0, 0, 16*count+400, 16*count+400)
	s := NewStructure(c, fp)
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < count; i++ {
		// Disjoint on block a's width row: [4i+1, 4i+4].
		lo := 4*i + 1
		p := mk(1+rng.Float64(), [2]int{lo, lo + 3}, [2]int{1, 40}, [2]int{1, 40}, [2]int{1, 40})
		p.X = []int{0, 100, 200, 300}
		p.Y = []int{0, 100, 200, 300}
		p.WLo = append(p.WLo, 1, 1)
		p.WHi = append(p.WHi, 40, 40)
		p.HLo = append(p.HLo, 1, 1)
		p.HHi = append(p.HHi, 40, 40)
		if i%3 == 0 {
			p.BestW = []int{lo, 2, 3, 4}
			p.BestH = []int{5, 6, 7, 8}
		}
		if _, err := storePlacement(s, p); err != nil {
			t.Fatal(err)
		}
	}
	return s, c
}

// TestBinaryRoundTrip saves a structure with the v2 codec and checks the
// loaded copy answers an exhaustive query sweep identically, placement
// fields included.
func TestBinaryRoundTrip(t *testing.T) {
	s, c := codecStructure(t, 25)
	var buf bytes.Buffer
	if err := s.SaveBinary(&buf); err != nil {
		t.Fatal(err)
	}
	s2, err := Load(bytes.NewReader(buf.Bytes()), c)
	if err != nil {
		t.Fatal(err)
	}
	if s2.NumPlacements() != s.NumPlacements() {
		t.Fatalf("loaded %d placements, want %d", s2.NumPlacements(), s.NumPlacements())
	}
	if err := s2.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if s2.Floorplan() != s.Floorplan() {
		t.Fatalf("floorplan %v, want %v", s2.Floorplan(), s.Floorplan())
	}
	for _, id := range s.IDs() {
		p, q := s.Get(id), s2.Get(id)
		if q == nil {
			t.Fatalf("placement %d missing after round trip", id)
		}
		if !reflect.DeepEqual(p.X, q.X) || !reflect.DeepEqual(p.Y, q.Y) ||
			!reflect.DeepEqual(p.WLo, q.WLo) || !reflect.DeepEqual(p.WHi, q.WHi) ||
			!reflect.DeepEqual(p.HLo, q.HLo) || !reflect.DeepEqual(p.HHi, q.HHi) ||
			p.AvgCost != q.AvgCost || p.BestCost != q.BestCost ||
			!reflect.DeepEqual(p.BestW, q.BestW) || !reflect.DeepEqual(p.BestH, q.BestH) {
			t.Fatalf("placement %d differs after round trip:\n%+v\n%+v", id, p, q)
		}
	}
}

// TestGobBinaryEquivalence is the codec-equivalence property: the same
// structure saved as gob v1 and binary v2 must load into structures that
// answer a randomized query sweep identically.
func TestGobBinaryEquivalence(t *testing.T) {
	s, c := codecStructure(t, 30)
	var gobBuf, binBuf bytes.Buffer
	if err := s.Save(&gobBuf); err != nil {
		t.Fatal(err)
	}
	if err := s.SaveBinary(&binBuf); err != nil {
		t.Fatal(err)
	}
	fromGob, err := Load(bytes.NewReader(gobBuf.Bytes()), c)
	if err != nil {
		t.Fatalf("gob load: %v", err)
	}
	fromBin, err := Load(bytes.NewReader(binBuf.Bytes()), c)
	if err != nil {
		t.Fatalf("binary load: %v", err)
	}
	rng := rand.New(rand.NewSource(7))
	n := c.N()
	ws, hs := make([]int, n), make([]int, n)
	for trial := 0; trial < 1000; trial++ {
		for i, b := range c.Blocks {
			ws[i] = b.WMin + rng.Intn(b.WMax-b.WMin+1)
			hs[i] = b.HMin + rng.Intn(b.HMax-b.HMin+1)
		}
		a, errA := fromGob.Query(ws, hs)
		b, errB := fromBin.Query(ws, hs)
		if (errA == nil) != (errB == nil) {
			t.Fatalf("query divergence at %v/%v: %v vs %v", ws, hs, errA, errB)
		}
		if errA == nil && (a.ID != b.ID || !reflect.DeepEqual(a.X, b.X) || !reflect.DeepEqual(a.Y, b.Y)) {
			t.Fatalf("codecs disagree at %v/%v: placement %d vs %d", ws, hs, a.ID, b.ID)
		}
	}
}

// TestBinarySmallerThanGob pins the size claim: the varint-packed v2 file
// must not exceed the gob v1 encoding of the same structure.
func TestBinarySmallerThanGob(t *testing.T) {
	s, _ := codecStructure(t, 40)
	var gobBuf, binBuf bytes.Buffer
	if err := s.Save(&gobBuf); err != nil {
		t.Fatal(err)
	}
	if err := s.SaveBinary(&binBuf); err != nil {
		t.Fatal(err)
	}
	if binBuf.Len() > gobBuf.Len() {
		t.Fatalf("v2 file is %d bytes, gob is %d — v2 must not be larger", binBuf.Len(), gobBuf.Len())
	}
	t.Logf("gob v1: %d bytes, binary v2: %d bytes (%.2fx)",
		gobBuf.Len(), binBuf.Len(), float64(binBuf.Len())/float64(gobBuf.Len()))
}

// TestGoldenV1Fixture proves old gob files stay loadable: the fixture was
// written by the v1 encoder before the v2 codec existed and its bytes are
// frozen in testdata.
func TestGoldenV1Fixture(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "golden_v1_circ01.gob"))
	if err != nil {
		t.Fatal(err)
	}
	c, err := circuits.ByName("circ01")
	if err != nil {
		t.Fatal(err)
	}
	s, err := Load(bytes.NewReader(data), c)
	if err != nil {
		t.Fatalf("golden v1 fixture no longer loads: %v", err)
	}
	if got, want := s.NumPlacements(), 43; got != want {
		t.Errorf("fixture has %d placements, want %d", got, want)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Errorf("fixture violates invariants: %v", err)
	}
}

// TestGoldenV3Fixture proves the legacy v3 files earlier versions wrote
// stay loadable now that nothing in the program writes v3. The fixture is
// circ01 at quick effort, seed 1, as SaveBinaryCompiled wrote it (its
// SHA-256 was the golden generation table's circ01/anneal/seed 1 row when
// it was frozen in testdata). The load must leave the index it checked
// the file's tables against attached, answering as the reference scan does.
func TestGoldenV3Fixture(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "golden_v3_circ01.mps"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(data, []byte(binaryMagic+"\x03")) {
		t.Fatalf("fixture starts %q, want the v3 header", data[:len(binaryMagic)+1])
	}
	c, err := circuits.ByName("circ01")
	if err != nil {
		t.Fatal(err)
	}
	s, err := Load(bytes.NewReader(data), c)
	if err != nil {
		t.Fatalf("golden v3 fixture no longer loads: %v", err)
	}
	if got, want := s.NumPlacements(), 107; got != want {
		t.Errorf("fixture has %d placements, want %d", got, want)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Errorf("fixture violates invariants: %v", err)
	}
	cs := s.compiled.Load()
	if cs == nil {
		t.Fatal("v3 load did not attach the compiled index")
	}
	assertCompiledAgrees(t, s, cs, 3, 3000)
	// Uniform queries rarely land in a box: check every box's centre too.
	n := c.N()
	ws, hs := make([]int, n), make([]int, n)
	for _, id := range s.IDs() {
		p := s.Get(id)
		for i := 0; i < n; i++ {
			ws[i], hs[i] = (p.WLo[i]+p.WHi[i])/2, (p.HLo[i]+p.HHi[i])/2
		}
		if got, err := cs.QueryID(ws, hs); err != nil || got != id {
			t.Fatalf("centre of placement %d: compiled answers %d, %v", id, got, err)
		}
	}
}

// TestLoadCorruptV2 sweeps deterministic corruptions of a v2 file:
// every truncation and every byte-flip must produce an error (the CRC
// catches them all) and must never panic.
func TestLoadCorruptV2(t *testing.T) {
	s, c := codecStructure(t, 10)
	var buf bytes.Buffer
	if err := s.SaveBinary(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for cut := 0; cut < len(data); cut++ {
		if _, err := Load(bytes.NewReader(data[:cut]), c); err == nil {
			t.Fatalf("truncation to %d of %d bytes loaded without error", cut, len(data))
		}
	}
	for i := range data {
		mut := append([]byte(nil), data...)
		mut[i] ^= 0x40
		if _, err := Load(bytes.NewReader(mut), c); err == nil {
			t.Fatalf("bit flip at byte %d of %d loaded without error", i, len(data))
		}
	}
}

// TestLoadCorruptV1 sweeps truncations of a gob v1 file: all must error,
// none may panic. (Bit flips are exercised by FuzzLoad; unlike v2, gob has
// no checksum, so a flipped cost byte can legitimately still decode.)
func TestLoadCorruptV1(t *testing.T) {
	s, c := codecStructure(t, 10)
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for cut := 0; cut < len(data); cut += 7 {
		if _, err := Load(bytes.NewReader(data[:cut]), c); err == nil {
			t.Fatalf("gob truncation to %d of %d bytes loaded without error", cut, len(data))
		}
	}
}

// TestBinaryRejectsBadHeader covers the v2 decode paths the CRC cannot:
// wrong version and trailing garbage are re-checksummed so they reach the
// structural checks.
func TestBinaryRejectsBadHeader(t *testing.T) {
	s, c := codecStructure(t, 3)
	payload := s.appendBinary(nil)

	// Bump the version varint (offset 4, value 2 → 3) and re-seal.
	bad := append([]byte(nil), payload...)
	bad[len(binaryMagic)] = 3
	if _, err := Load(bytes.NewReader(seal(bad)), c); err == nil {
		t.Error("future format version loaded without error")
	}

	// Trailing garbage inside the checksummed region.
	bad = append(append([]byte(nil), payload...), 0xAA, 0xBB)
	if _, err := Load(bytes.NewReader(seal(bad)), c); err == nil {
		t.Error("trailing payload bytes loaded without error")
	}

	// Wrong circuit for a well-formed file.
	other := netlist.NewBuilder("other")
	other.Block("x", 1, 10, 1, 10)
	other.Net("n", 1, netlist.T("x", 0, 0))
	if _, err := Load(bytes.NewReader(seal(payload)), other.MustBuild()); err == nil {
		t.Error("binary file loaded into a different circuit")
	}
}

// seal appends a valid CRC to a v2 payload, mimicking SaveBinary.
func seal(payload []byte) []byte { return appendCRC(append([]byte(nil), payload...)) }

// FuzzLoad feeds arbitrary bytes to Load. The invariant: Load never
// panics, and when it succeeds the structure passes the full invariant
// check — the load path must validate everything CheckInvariants would.
// Every input is loaded for the codec circuit and for circ01, so the
// golden v3 fixture reaches the legacy reader's table check.
func FuzzLoad(f *testing.F) {
	s, c := codecStructure(f, 8)
	circ01, err := circuits.ByName("circ01")
	if err != nil {
		f.Fatal(err)
	}
	fixture, err := os.ReadFile(filepath.Join("testdata", "golden_v3_circ01.mps"))
	if err != nil {
		f.Fatal(err)
	}
	var gobBuf, binBuf bytes.Buffer
	if err := s.Save(&gobBuf); err != nil {
		f.Fatal(err)
	}
	if err := s.SaveBinary(&binBuf); err != nil {
		f.Fatal(err)
	}
	f.Add(gobBuf.Bytes())
	f.Add(binBuf.Bytes())
	f.Add(binBuf.Bytes()[:len(binBuf.Bytes())/2])
	f.Add([]byte(binaryMagic))
	f.Add([]byte{})
	f.Add(fixture)
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, circuit := range []*netlist.Circuit{c, circ01} {
			loaded, err := Load(bytes.NewReader(data), circuit)
			if err != nil {
				continue
			}
			if err := loaded.CheckInvariants(); err != nil {
				t.Fatalf("Load accepted a structure that violates invariants: %v", err)
			}
		}
	})
}
