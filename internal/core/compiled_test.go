package core

import (
	"bytes"
	"io"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"mps/internal/cost"
	"mps/internal/geom"
	"mps/internal/placement"
)

// randomDims fills ws/hs with uniform values over the circuit's designer
// bounds — the query distribution every equivalence check uses.
func randomDims(s *Structure, rng *rand.Rand, ws, hs []int) {
	for i, b := range s.circuit.Blocks {
		ws[i] = b.WMin + rng.Intn(b.WMax-b.WMin+1)
		hs[i] = b.HMin + rng.Intn(b.HMax-b.HMin+1)
	}
}

// assertCompiledAgrees sweeps trials random dimension vectors and fails on
// the first query where the compiled index and the reference scan disagree
// on Lookup/LookupLinear, QueryID/Query, or Instantiate.
func assertCompiledAgrees(t *testing.T, s *Structure, cs *CompiledStructure, seed int64, trials int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	n := s.circuit.N()
	ws, hs := make([]int, n), make([]int, n)
	for trial := 0; trial < trials; trial++ {
		randomDims(s, rng, ws, hs)

		if ref, flat := s.LookupLinear(ws, hs), cs.Lookup(ws, hs); !reflect.DeepEqual(ref, flat) {
			t.Fatalf("Lookup diverges at %v/%v: scan %v, compiled %v", ws, hs, ref, flat)
		}

		p, refErr := s.Query(ws, hs)
		id, flatErr := cs.QueryID(ws, hs)
		if (refErr == nil) != (flatErr == nil) {
			t.Fatalf("Query diverges at %v/%v: scan err %v, compiled err %v", ws, hs, refErr, flatErr)
		}
		if refErr == nil && p.ID != id {
			t.Fatalf("Query diverges at %v/%v: scan id %d, compiled id %d", ws, hs, p.ID, id)
		}

		refRes, refErr := s.Instantiate(ws, hs)
		flatRes, flatErr := cs.Instantiate(ws, hs)
		if (refErr == nil) != (flatErr == nil) {
			t.Fatalf("Instantiate diverges at %v/%v: scan err %v, compiled err %v", ws, hs, refErr, flatErr)
		}
		if refErr != nil {
			continue
		}
		if !reflect.DeepEqual(refRes, flatRes) {
			t.Fatalf("Instantiate diverges at %v/%v:\nscan     %+v\ncompiled %+v", ws, hs, refRes, flatRes)
		}
	}
}

// TestCompiledLookupEquivalence is the core equivalence property: on a
// structure with dozens of placements, the flat index answers every query
// exactly as the reference scan does.
func TestCompiledLookupEquivalence(t *testing.T) {
	s, _ := codecStructure(t, 40)
	cs := Compile(s)
	if cs.NumPlacements() != s.NumPlacements() {
		t.Fatalf("compiled %d placements, structure %d", cs.NumPlacements(), s.NumPlacements())
	}
	if cs.NumSpans() == 0 {
		t.Fatal("compiled index has no spans")
	}
	assertCompiledAgrees(t, s, cs, 1, 3000)
}

// TestCompileCaches verifies Compile returns the cached index until a
// mutation invalidates it, and that the recompiled index matches the
// mutated structure.
func TestCompileCaches(t *testing.T) {
	s, _ := codecStructure(t, 12)
	cs := Compile(s)
	if Compile(s) != cs {
		t.Fatal("second Compile did not return the cached index")
	}
	victim := s.IDs()[3]
	s.delete(victim)
	cs2 := Compile(s)
	if cs2 == cs {
		t.Fatal("delete did not invalidate the compiled index")
	}
	if cs2.NumPlacements() != s.NumPlacements() {
		t.Fatalf("recompiled %d placements, structure %d", cs2.NumPlacements(), s.NumPlacements())
	}
	assertCompiledAgrees(t, s, cs2, 2, 1500)
}

// fixedBackup is a deterministic Backup double: anchors block i at (i, 2i).
type fixedBackup struct{}

func (fixedBackup) Place(ws, hs []int) (x, y []int, err error) {
	x = make([]int, len(ws))
	y = make([]int, len(ws))
	for i := range ws {
		x[i], y[i] = i, 2*i
	}
	return x, y, nil
}

// TestCompiledBackupParity checks the uncovered-space path: with a backup
// installed both paths answer from it identically; without one both return
// ErrUncovered.
func TestCompiledBackupParity(t *testing.T) {
	s, _ := codecStructure(t, 6)
	cs := Compile(s)
	assertCompiledAgrees(t, s, cs, 3, 500) // ErrUncovered parity, no backup

	s.SetBackup(fixedBackup{})
	// The compiled index reads the backup through its source structure, so
	// installing one after compilation is visible without recompiling —
	// same as the reference scan.
	assertCompiledAgrees(t, s, cs, 4, 1500)
}

// TestCompiledInstantiateAllocFree pins the headline property: a covered
// query through InstantiateInto performs zero allocations once the result
// buffers exist, and one — both anchor slices, X capped at its length —
// into a fresh result.
func TestCompiledInstantiateAllocFree(t *testing.T) {
	s, _ := codecStructure(t, 25)
	cs := Compile(s)
	// Query inside stored placement 7's box: always covered.
	p := s.Get(7)
	n := s.circuit.N()
	ws, hs := make([]int, n), make([]int, n)
	for i := 0; i < n; i++ {
		ws[i], hs[i] = p.WLo[i], p.HLo[i]
	}
	var res Result
	if err := cs.InstantiateInto(&res, ws, hs); err != nil { // warm buffers and pool
		t.Fatal(err)
	}
	if res.PlacementID != 7 || res.FromBackup {
		t.Fatalf("warmup answered %+v, want placement 7", res)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := cs.InstantiateInto(&res, ws, hs); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("covered InstantiateInto allocates %.1f objects per query, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(200, func() {
		if _, err := cs.Instantiate(ws, hs); err != nil {
			t.Fatal(err)
		}
	}); allocs != 1 {
		t.Fatalf("covered Instantiate allocates %.1f objects per query, want 1", allocs)
	}
	fresh, err := cs.Instantiate(ws, hs)
	if err != nil {
		t.Fatal(err)
	}
	y := append([]int(nil), fresh.Y...)
	_ = append(fresh.X, -1)
	if cap(fresh.X) != len(fresh.X) || !reflect.DeepEqual(fresh.Y, y) || !reflect.DeepEqual(fresh, res) {
		t.Fatalf("fresh answer %+v (cap X %d), want %+v with X capped", fresh, cap(fresh.X), res)
	}
}

// TestCompiledV3RoundTrip saves with the compiled codec and checks the
// loaded structure arrives with the index attached and agreeing with its
// rows.
func TestCompiledV3RoundTrip(t *testing.T) {
	s, c := codecStructure(t, 25)
	var buf bytes.Buffer
	if err := s.SaveBinaryCompiled(&buf); err != nil {
		t.Fatal(err)
	}
	// v3 must stay loadable and pre-indexed.
	s2, err := Load(bytes.NewReader(buf.Bytes()), c)
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	attached := s2.compiled.Load()
	if attached == nil {
		t.Fatal("v3 load did not attach the compiled index")
	}
	if Compile(s2) != attached {
		t.Fatal("Compile on a v3-loaded structure rebuilt instead of using the attached index")
	}
	assertCompiledAgrees(t, s2, attached, 5, 2000)

	// A structure saved after deletions renumbers IDs; the persisted
	// tables must follow the renumbering.
	s.delete(s.IDs()[2])
	s.delete(s.IDs()[9])
	buf.Reset()
	if err := s.SaveBinaryCompiled(&buf); err != nil {
		t.Fatal(err)
	}
	s3, err := Load(bytes.NewReader(buf.Bytes()), c)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := s3.NumPlacements(), s.NumPlacements(); got != want {
		t.Fatalf("loaded %d placements, want %d", got, want)
	}
	cs3 := s3.compiled.Load()
	if cs3 == nil {
		t.Fatal("v3 load after deletions did not attach the compiled index")
	}
	assertCompiledAgrees(t, s3, cs3, 6, 2000)
}

// TestCompiledV3RejectsForgedTables seals a v3 file whose compiled section
// was tampered with under a fresh (valid) CRC: the checksum passes, so the
// cross-check against the rebuilt rows must be what rejects it.
func TestCompiledV3RejectsForgedTables(t *testing.T) {
	s, c := codecStructure(t, 10)
	var buf bytes.Buffer
	if err := s.SaveBinaryCompiled(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	payload := data[:len(data)-crcLen]
	// The id (slot) values are the last varints of the payload; nudging
	// any tail byte forges the tables while the placement records stay
	// intact.
	for off := 1; off <= 24 && off < len(payload); off++ {
		forged := append([]byte(nil), payload...)
		forged[len(forged)-off] ^= 0x01
		if _, err := Load(bytes.NewReader(seal(forged)), c); err == nil {
			// Some flips only permute within still-consistent tables is
			// impossible: the tables must match the rows exactly. Any
			// successful load here means the cross-check has a hole.
			t.Fatalf("forged v3 tables (tail byte -%d flipped) loaded without error", off)
		}
	}
}

// TestCompiledV3RejectsForgedSection flips every bit of a v3 file's
// compiled section in turn, cuts the section short at every byte and
// appends one byte, each under a fresh CRC: span and id counts,
// breakpoints and slots are each checked against the compiled rows, so no
// forgery may load.
func TestCompiledV3RejectsForgedSection(t *testing.T) {
	s, c := codecStructure(t, 10)
	var v3 bytes.Buffer
	if err := s.SaveBinaryCompiled(&v3); err != nil {
		t.Fatal(err)
	}
	payload := v3.Bytes()[:v3.Len()-crcLen]
	start := len(s.appendBinary(nil)) // the compiled section follows the v2 payload
	for off := start; off < len(payload); off++ {
		for bit := 0; bit < 8; bit++ {
			forged := append([]byte(nil), payload...)
			forged[off] ^= 1 << bit
			if _, err := Load(bytes.NewReader(seal(forged)), c); err == nil {
				t.Fatalf("v3 section with byte %d bit %d flipped loaded without error", off-start, bit)
			}
		}
	}
	for cut := start; cut < len(payload); cut++ {
		if _, err := Load(bytes.NewReader(seal(payload[:cut])), c); err == nil {
			t.Fatalf("v3 section cut to %d of %d bytes loaded without error", cut-start, len(payload)-start)
		}
	}
	if _, err := Load(bytes.NewReader(seal(append(payload[:len(payload):len(payload)], 0))), c); err == nil {
		t.Fatal("v3 section with a trailing byte loaded without error")
	}
}

// TestLoadRejectsInt32OverflowFloorplan feeds Load well-formed files whose
// coordinates the compiled index's int32 tables cannot hold: Load must
// return an error, never reach the Compile/attach panic — the decoder's
// no-panic contract covers v2 and v3 alike.
func TestLoadRejectsInt32OverflowFloorplan(t *testing.T) {
	c, fp := pairCircuit()
	block := func(x int) *placement.Placement {
		p := mk(1, [2]int{10, 20}, [2]int{10, 20}, [2]int{10, 20}, [2]int{10, 20})
		p.X = []int{x, 0}
		return p
	}
	for _, tc := range []struct {
		name string
		fp   geom.Rect
		p    *placement.Placement
	}{
		// Where int has 64 bits, the floorplan and block 0's anchor lie
		// past the int32 range. Where it has 32, no int does: min keeps the
		// floorplan ending at the int range's end, and block 0's anchor
		// there puts its far edge past that end, which Load must reject
		// just the same.
		{"wide floorplan", geom.NewRect(0, 0, min(1<<40, math.MaxInt), min(1<<40, math.MaxInt)), block(min(1<<35, math.MaxInt))},
		// An anchor within a block's width of MaxInt, in an int32
		// floorplan: the block's far edge wraps below its anchor.
		{"wrapping anchor", fp, block(math.MaxInt - 5)},
	} {
		s := NewStructure(c, tc.fp)
		if _, err := storePlacement(s, tc.p); err != nil {
			t.Fatal(err)
		}
		// The v2 and v3 writers refuse a floorplan past the int32 range with
		// Load's error, so the v2 file is forged from the payload they would
		// write. No v3 leg: a forged v3 file is rejected by the same
		// buildStructure checks before its tables attach.
		for name, save := range map[string]func(io.Writer) error{
			"v1": s.Save,
			"v2": func(w io.Writer) error { _, err := w.Write(appendCRC(s.appendBinary(nil))); return err },
		} {
			var buf bytes.Buffer
			if err := save(&buf); err != nil {
				t.Fatalf("%s %s: %v", tc.name, name, err)
			}
			if _, err := Load(bytes.NewReader(buf.Bytes()), c); err == nil {
				t.Errorf("%s %s: Load accepted a structure outside the int32 coordinate range", tc.name, name)
			}
		}
	}
}

// TestCompiledEmptyStructure compiles a structure with no placements: every
// query must report uncovered, never panic.
func TestCompiledEmptyStructure(t *testing.T) {
	c, fp := pairCircuit()
	s := NewStructure(c, fp)
	cs := Compile(s)
	if cs.NumPlacements() != 0 || cs.NumSpans() != 0 {
		t.Fatalf("empty structure compiled to %d placements / %d spans", cs.NumPlacements(), cs.NumSpans())
	}
	ws, hs := []int{10, 10}, []int{10, 10}
	if got := cs.Lookup(ws, hs); got != nil {
		t.Fatalf("Lookup on empty compiled structure returned %v", got)
	}
	if _, err := cs.Instantiate(ws, hs); err != ErrUncovered {
		t.Fatalf("Instantiate on empty compiled structure: %v, want ErrUncovered", err)
	}
}

// TestCompiledConcurrentQueries hammers one compiled index from many
// goroutines (run under -race in CI): the pooled scratch must keep
// concurrent queries independent.
func TestCompiledConcurrentQueries(t *testing.T) {
	s, _ := codecStructure(t, 30)
	s.SetBackup(fixedBackup{})
	cs := Compile(s)
	n := s.circuit.N()
	const workers = 8
	done := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func(seed int64) {
			rng := rand.New(rand.NewSource(seed))
			ws, hs := make([]int, n), make([]int, n)
			var res Result
			for trial := 0; trial < 2000; trial++ {
				randomDims(s, rng, ws, hs)
				if err := cs.InstantiateInto(&res, ws, hs); err != nil {
					done <- err
					return
				}
				if !res.FromBackup {
					p := s.Get(res.PlacementID)
					for i := 0; i < n; i++ {
						if res.X[i] != p.X[i] || res.Y[i] != p.Y[i] {
							t.Errorf("worker %d: anchors diverge from placement %d", seed, res.PlacementID)
							done <- nil
							return
						}
					}
				}
			}
			done <- nil
		}(int64(w + 1))
	}
	for w := 0; w < workers; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// TestProbeAnswerInto checks the probe-then-answer query path behind
// portfolio routing: on covered queries the probed slot answers through
// AnswerInto exactly as InstantiateInto does and allocates nothing, on
// uncovered queries the probe reports slot -1 without ever consulting the
// installed backup while AnswerInto(-1) is the backup's answer, and the
// probed area and dead space agree with the anchors AnswerInto returns.
func TestProbeAnswerInto(t *testing.T) {
	s, _ := codecStructure(t, 25)
	s.SetBackup(fixedBackup{})
	cs := Compile(s)
	mi := Merge([]*CompiledStructure{cs})
	n := s.circuit.N()
	rng := rand.New(rand.NewSource(11))
	ws, hs := make([]int, n), make([]int, n)
	var res, want Result
	covered, uncovered := 0, 0
	for trial := 0; trial < 3000; trial++ {
		randomDims(s, rng, ws, hs)
		slot, terms, err := probe(mi, ws, hs, false)
		if err != nil {
			t.Fatal(err)
		}
		if err := cs.InstantiateInto(&want, ws, hs); err != nil {
			t.Fatal(err)
		}
		if err := cs.AnswerInto(&res, slot, ws, hs); err != nil {
			t.Fatal(err)
		}
		if slot < 0 {
			uncovered++
			if !want.FromBackup {
				t.Fatalf("slot -1 but InstantiateInto found placement %d at %v/%v", want.PlacementID, ws, hs)
			}
			if terms != (cost.Terms{}) {
				t.Fatalf("uncovered probe reported terms %+v at %v/%v", terms, ws, hs)
			}
			if !reflect.DeepEqual(res, want) {
				t.Fatalf("AnswerInto(-1) = %+v, want the backup answer %+v", res, want)
			}
			continue
		}
		covered++
		if want.FromBackup || res.FromBackup || res.PlacementID != want.PlacementID ||
			!reflect.DeepEqual(res.X, want.X) || !reflect.DeepEqual(res.Y, want.Y) {
			t.Fatalf("covered answer diverges at %v/%v:\nprobed   %+v\nfull     %+v", ws, hs, res, want)
		}
		wantArea, wantDead := bboxArea(res, ws, hs)
		if terms.Area != wantArea || terms.Dead != wantDead {
			t.Fatalf("probed area/dead = (%d, %d), want (%d, %d) from the returned anchors",
				terms.Area, terms.Dead, wantArea, wantDead)
		}
	}
	if covered == 0 || uncovered == 0 {
		t.Fatalf("query stream not mixed: %d covered, %d uncovered", covered, uncovered)
	}

	// The covered probe and answer are portfolio routing's inner loop:
	// zero allocations.
	p := s.Get(7)
	for i := 0; i < n; i++ {
		ws[i], hs[i] = p.WLo[i], p.HLo[i]
	}
	allocs := testing.AllocsPerRun(200, func() {
		slot, _, err := probe(mi, ws, hs, false)
		if err != nil || slot < 0 {
			t.Fatalf("covered probe: slot=%d err=%v", slot, err)
		}
		if err := cs.AnswerInto(&res, slot, ws, hs); err != nil || res.FromBackup {
			t.Fatalf("covered answer: backup=%v err=%v", res.FromBackup, err)
		}
	})
	if allocs != 0 {
		t.Fatalf("covered routing probes allocate %.1f objects per query, want 0", allocs)
	}
}

// bboxArea computes a result's bounding-box area and dead space from its
// anchors and the queried dimensions — the reference for the probed area terms.
func bboxArea(res Result, ws, hs []int) (area, dead int64) {
	minX, minY := int64(1<<62), int64(1<<62)
	maxX, maxY := int64(-1<<62), int64(-1<<62)
	var blocks int64
	for i := range res.X {
		x, y, w, h := int64(res.X[i]), int64(res.Y[i]), int64(ws[i]), int64(hs[i])
		minX, minY = min(minX, x), min(minY, y)
		maxX, maxY = max(maxX, x+w), max(maxY, y+h)
		blocks += w * h
	}
	area = (maxX - minX) * (maxY - minY)
	return area, area - blocks
}

// FuzzCompiledLookup is the differential fuzzer of the CI smoke step:
// whatever structure Load accepts, the compiled index must answer
// arbitrary dimension vectors exactly as LookupLinear does, and a
// merged index over it, the seed structure (in both orders) or an empty
// structure must report for each member the placement that member's own
// QueryID names, with the same error text.
func FuzzCompiledLookup(f *testing.F) {
	s, c := codecStructure(f, 8)
	seed, empty := Compile(s), Compile(NewStructure(c, s.fp))
	var v2, v3 bytes.Buffer
	if err := s.SaveBinary(&v2); err != nil {
		f.Fatal(err)
	}
	if err := s.SaveBinaryCompiled(&v3); err != nil {
		f.Fatal(err)
	}
	f.Add(v2.Bytes(), int64(1))
	f.Add(v3.Bytes(), int64(2))
	f.Add(v3.Bytes()[:v3.Len()-10], int64(3))
	f.Fuzz(func(t *testing.T, data []byte, dimSeed int64) {
		loaded, err := Load(bytes.NewReader(data), c)
		if err != nil {
			return
		}
		cs := Compile(loaded)
		var merges []*MergedIndex
		for _, members := range [][]*CompiledStructure{{cs}, {cs, seed}, {seed, cs}, {cs, empty}, {empty, cs}} {
			merges = append(merges, Merge(members))
		}
		rng := rand.New(rand.NewSource(dimSeed))
		n := loaded.circuit.N()
		ws, hs := make([]int, n), make([]int, n)
		for trial := 0; trial < 40; trial++ {
			// Half the probes stay inside designer bounds (the covered
			// regime), half roam arbitrary integers — Lookup must agree on
			// both, bounds checks notwithstanding.
			if trial%2 == 0 {
				randomDims(loaded, rng, ws, hs)
			} else {
				for i := 0; i < n; i++ {
					ws[i] = rng.Intn(2000) - 500
					hs[i] = rng.Intn(2000) - 500
				}
			}
			ref, flat := loaded.LookupLinear(ws, hs), cs.Lookup(ws, hs)
			if !reflect.DeepEqual(ref, flat) {
				t.Fatalf("Lookup diverges at %v/%v: scan %v, compiled %v", ws, hs, ref, flat)
			}
			for i, mi := range merges {
				if d := coverMismatch(mi, ws, hs); d != "" {
					t.Fatalf("merge %d at %v/%v: %s", i, ws, hs, d)
				}
			}
		}
	})
}
