package mps

// Persistence acceptance tests for the binary structure codecs and the
// crash-safe SaveFile path: every Table 1 circuit must round-trip through
// the v2 format SaveFile writes with identical Instantiate behavior, and
// the legacy v3 and gob files must keep loading through the same facade.

import (
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// sweepCompare runs a randomized query sweep against two structures and
// fails on any divergence in anchors or backup provenance. Raw placement
// IDs are not compared: Compact leaves ID gaps that the load path
// renumbers, so IDs are stable across codecs (see the core equivalence
// test) but not across a save/load of a compacted structure.
func sweepCompare(t *testing.T, c *Circuit, a, b *Structure, trials int, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	n := c.N()
	ws, hs := make([]int, n), make([]int, n)
	for trial := 0; trial < trials; trial++ {
		for i, blk := range c.Blocks {
			ws[i] = blk.WMin + rng.Intn(blk.WMax-blk.WMin+1)
			hs[i] = blk.HMin + rng.Intn(blk.HMax-blk.HMin+1)
		}
		ra, errA := a.Instantiate(ws, hs)
		rb, errB := b.Instantiate(ws, hs)
		if (errA == nil) != (errB == nil) {
			t.Fatalf("instantiate divergence at %v/%v: %v vs %v", ws, hs, errA, errB)
		}
		if errA != nil {
			continue
		}
		if ra.FromBackup != rb.FromBackup ||
			!reflect.DeepEqual(ra.X, rb.X) || !reflect.DeepEqual(ra.Y, rb.Y) {
			t.Fatalf("structures disagree at %v/%v:\n%+v\n%+v", ws, hs, ra, rb)
		}
	}
}

// TestBinaryRoundTripTable1 is the acceptance property for the binary
// codecs: for every Table 1 circuit, SaveFile (v2) → LoadFile and
// SaveBinaryCompiled (legacy v3) → LoadFile yield structures whose
// Instantiate output matches the original on a randomized query sweep —
// and the gob v1 format of the same structure still loads via sniffing.
func TestBinaryRoundTripTable1(t *testing.T) {
	if testing.Short() {
		t.Skip("generates a structure per Table 1 circuit")
	}
	dir := t.TempDir()
	for _, name := range BenchmarkNames() {
		t.Run(name, func(t *testing.T) {
			c, err := Benchmark(name)
			if err != nil {
				t.Fatal(err)
			}
			s, _, err := generate(c, Options{Seed: 7, Iterations: 12, BDIOSteps: 20})
			if err != nil {
				t.Fatal(err)
			}

			// SaveFile writes v2, the one format the program writes.
			binPath := filepath.Join(dir, name+".mps")
			if err := s.SaveFile(binPath); err != nil {
				t.Fatal(err)
			}
			if head := fileHead(t, binPath, 5); string(head) != "MPSB\x02" {
				t.Fatalf("SaveFile wrote header %q, want the v2 header", head)
			}
			fromBin, err := LoadFile(binPath, c)
			if err != nil {
				t.Fatal(err)
			}
			if fromBin.NumPlacements() != s.NumPlacements() {
				t.Fatalf("v2 load has %d placements, want %d", fromBin.NumPlacements(), s.NumPlacements())
			}
			sweepCompare(t, c, s, fromBin, 150, 11)

			// The legacy v3 and v1 writers remain in core; their files
			// still load.
			v3Path := filepath.Join(dir, name+".v3.mps")
			saveWith(t, v3Path, s.SaveBinaryCompiled)
			if head := fileHead(t, v3Path, 5); string(head) != "MPSB\x03" {
				t.Fatalf("SaveBinaryCompiled wrote header %q, want the v3 header", head)
			}
			fromV3, err := LoadFile(v3Path, c)
			if err != nil {
				t.Fatal(err)
			}
			if fromV3.NumPlacements() != s.NumPlacements() {
				t.Fatalf("v3 load has %d placements, want %d", fromV3.NumPlacements(), s.NumPlacements())
			}
			sweepCompare(t, c, s, fromV3, 150, 11)

			gobPath := filepath.Join(dir, name+".gob.mps")
			saveWith(t, gobPath, s.Save)
			fromGob, err := LoadFile(gobPath, c)
			if err != nil {
				t.Fatal(err)
			}
			sweepCompare(t, c, fromGob, fromBin, 150, 13)

			// v2 must not be larger than v1 on any circuit.
			binInfo, err := os.Stat(binPath)
			if err != nil {
				t.Fatal(err)
			}
			gobInfo, err := os.Stat(gobPath)
			if err != nil {
				t.Fatal(err)
			}
			if binInfo.Size() > gobInfo.Size() {
				t.Errorf("v2 file is %d bytes, gob is %d — v2 must not be larger",
					binInfo.Size(), gobInfo.Size())
			}
		})
	}
}

// saveWith writes a structure file with one of core's writers.
func saveWith(t *testing.T, path string, write func(io.Writer) error) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := write(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// fileHead returns the first n bytes of a file.
func fileHead(t *testing.T, path string, n int) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data[:min(n, len(data))]
}

// TestSaveFileAtomicOverwrite: overwriting an existing structure file must
// go through the temp-and-rename path — on success the new content is in
// place and no temp litter remains.
func TestSaveFileAtomicOverwrite(t *testing.T) {
	c, err := Benchmark("circ01")
	if err != nil {
		t.Fatal(err)
	}
	s, _, err := generate(c, Options{Seed: 1, Iterations: 8, BDIOSteps: 15})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "s.mps")
	if err := os.WriteFile(path, []byte("pre-existing"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := s.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFile(path, c); err != nil {
		t.Fatalf("overwritten file does not load: %v", err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), ".mps-tmp-") {
			t.Errorf("temp file %s left behind", e.Name())
		}
	}
	if len(ents) != 1 {
		t.Errorf("directory holds %d entries, want just the structure file", len(ents))
	}
}
